"""Synthesis of PeeringDB notes/aka free text, with ground-truth labels.

Operators write these fields in many languages and for many purposes;
only some report siblings.  Every synthesized text comes with its truth:
which embedded numbers are genuine sibling ASNs.  The NER engine never
sees these labels — they exist for the validation tables (Table 4) and
for scoring.

Template families:

* sibling reports — prose or bullet lists naming the org's other ASNs
  (the Deutsche Telekom pattern of Fig. 4);
* upstream/peering listings — other orgs' ASNs in provider context (the
  Maxihost pattern of Appendix B; these are *not* siblings);
* decoy administrivia — phones, founding years, max-prefix counts,
  street addresses (as2org+'s regexes trip on these);
* plain prose without numbers (dropped by the input filter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..types import ASN


@dataclass(frozen=True)
class SynthesizedText:
    """A notes or aka value plus its ground truth."""

    text: str
    true_siblings: Tuple[ASN, ...]
    #: Non-sibling ASNs present in the text (upstreams etc.).
    foreign_asns: Tuple[ASN, ...] = ()
    #: True when the text contains decoy (non-ASN) numbers.
    has_decoys: bool = False


_SIBLING_PROSE: Dict[str, Sequence[str]] = {
    "en": (
        "We are part of the {org} group. Our sibling networks: {asn_list}.",
        "{org} also operates {asn_list} as part of the same organization.",
        "This network belongs to {org}; our other ASNs are {asn_list}.",
        "Formerly independent, now a subsidiary of {org}. Sister networks: "
        "{asn_list}.",
    ),
    "es": (
        "Somos parte del grupo {org}. También operamos {asn_list}.",
        "Esta red pertenece a {org}; nuestras redes hermanas son {asn_list}.",
        "Filial de {org}. Misma organización que {asn_list}.",
    ),
    "pt": (
        "Somos parte do grupo {org}. Também operamos {asn_list}.",
        "Esta rede pertence ao grupo {org}; subsidiária junto com {asn_list}.",
    ),
    "de": (
        "Wir sind Teil der {org} Gruppe. Wir betreiben auch {asn_list}.",
        "Tochtergesellschaft von {org}; gehört zu derselben Organisation wie "
        "{asn_list}.",
    ),
    "fr": (
        "Filiale de {org}. Nous exploitons également {asn_list}.",
        "Ce réseau fait partie du groupe {org} avec {asn_list}.",
    ),
    "id": (
        "Kami adalah bagian dari grup {org}. Kami juga mengoperasikan "
        "{asn_list}.",
        "Jaringan ini adalah anak perusahaan {org} bersama {asn_list}.",
    ),
}

_SIBLING_BULLETS_HEADER: Dict[str, str] = {
    "en": "Our sibling networks (same organization):",
    "es": "Nuestras redes hermanas (misma organización):",
    "pt": "Nossas redes do mesmo grupo:",
    "de": "Unsere Schwester-Netzwerke (Teil der Gruppe):",
    "fr": "Nos réseaux du même groupe (fait partie du groupe):",
    "id": "Jaringan kami yang lain (bagian dari grup):",
}

_UPSTREAM_HEADERS: Dict[str, Sequence[str]] = {
    "en": (
        "We connect directly with the following ISPs,",
        "IP transit from our upstream providers:",
        "Our upstream carriers:",
    ),
    "es": (
        "Estamos conectado a los siguientes proveedores:",
        "Tránsito de nuestros proveedores:",
    ),
    "pt": ("Trânsito IP de nossos provedores:",),
    "de": ("IP transit from our upstream providers:",),
    "fr": ("IP transit from our upstream providers:",),
    "id": ("IP transit from our upstream providers:",),
}

_DECOY_LINES: Sequence[str] = (
    "NOC phone: +{cc} {p1} {p2}.",
    "Founded in {year}. Carrier-grade services since {year}.",
    "Maximum prefixes accepted: {prefixes}.",
    "Office: Suite {suite}, {street} Street, Floor {floor}.",
    "Please open a ticket at our portal, ticket {ticket} format.",
    "as-in: {comm1} as-out: {comm2}",
)

_PLAIN_PROSE: Sequence[str] = (
    "Regional provider offering residential and enterprise connectivity.",
    "Peering policy: open. Please contact our NOC before configuring "
    "sessions.",
    "Content delivery platform with global reach.",
    "Somos un proveedor regional de servicios de Internet.",
    "Provedor regional de acesso à Internet.",
    "Wir sind ein regionaler Internetanbieter.",
)

_AKA_WITH_ASN: Sequence[str] = (
    "{alias} (AS{asn})",
    "{alias}, AS {asn}",
    "formerly {alias} AS{asn}",
)

_AKA_PLAIN: Sequence[str] = (
    "{alias}",
    "{alias} / {alias2}",
)


def _asn_list_text(rng: random.Random, asns: Sequence[ASN]) -> str:
    forms = []
    for asn in asns:
        style = rng.randrange(3)
        if style == 0:
            forms.append(f"AS{asn}")
        elif style == 1:
            forms.append(f"AS {asn}")
        else:
            forms.append(f"ASN {asn}")
    if len(forms) == 1:
        return forms[0]
    return ", ".join(forms[:-1]) + " and " + forms[-1]


def _decoy_line(rng: random.Random) -> str:
    template = rng.choice(_DECOY_LINES)
    return template.format(
        cc=rng.choice((1, 44, 49, 55, 54, 62, 81)),
        p1=rng.randint(200, 999),
        p2=rng.randint(1000, 9999),
        year=rng.randint(1992, 2021),
        prefixes=rng.choice((50, 100, 200, 500, 1000, 2000)),
        suite=rng.randint(100, 999),
        street=rng.randint(1, 9999),
        floor=rng.randint(1, 40),
        ticket=rng.randint(10000, 99999),
        comm1=rng.randint(64512, 65534),
        comm2=rng.randint(64512, 65534),
    )


class NotesSynthesizer:
    """Builds notes/aka texts for one universe, deterministically."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(("notes", seed).__repr__())

    def sibling_notes(
        self,
        org_name: str,
        siblings: Sequence[ASN],
        language: str = "en",
        with_decoys: bool = False,
        with_upstreams: Sequence[ASN] = (),
    ) -> SynthesizedText:
        """Notes that genuinely report sibling ASNs (± noise sections)."""
        rng = self._rng
        language = language if language in _SIBLING_PROSE else "en"
        parts: List[str] = []
        if rng.random() < 0.5:
            template = rng.choice(tuple(_SIBLING_PROSE[language]))
            parts.append(
                template.format(org=org_name, asn_list=_asn_list_text(rng, siblings))
            )
        else:
            header = _SIBLING_BULLETS_HEADER[language]
            bullets = "\n".join(f"- AS{asn}" for asn in siblings)
            parts.append(f"{header}\n{bullets}")
        if with_upstreams:
            parts.append(self._upstream_block(language, with_upstreams))
        has_decoys = False
        if with_decoys:
            parts.append(_decoy_line(rng))
            has_decoys = True
        rng.shuffle(parts)
        return SynthesizedText(
            text="\n\n".join(parts),
            true_siblings=tuple(sorted(siblings)),
            foreign_asns=tuple(sorted(with_upstreams)),
            has_decoys=has_decoys,
        )

    def upstream_notes(
        self,
        upstreams: Sequence[ASN],
        language: str = "en",
        with_decoys: bool = False,
    ) -> SynthesizedText:
        """The Maxihost pattern: numeric text with zero siblings."""
        parts = [self._upstream_block(language, upstreams)]
        has_decoys = False
        if with_decoys or self._rng.random() < 0.3:
            parts.append(_decoy_line(self._rng))
            has_decoys = True
        return SynthesizedText(
            text="\n\n".join(parts),
            true_siblings=(),
            foreign_asns=tuple(sorted(upstreams)),
            has_decoys=has_decoys,
        )

    def decoy_notes(self) -> SynthesizedText:
        """Numeric text that contains no ASNs at all (phones, years...)."""
        lines = [_decoy_line(self._rng)]
        if self._rng.random() < 0.4:
            lines.append(_decoy_line(self._rng))
        return SynthesizedText(
            text="\n".join(lines), true_siblings=(), has_decoys=True
        )

    def plain_notes(self) -> SynthesizedText:
        """Prose without any digits (removed by the input filter)."""
        return SynthesizedText(
            text=self._rng.choice(tuple(_PLAIN_PROSE)), true_siblings=()
        )

    def aka(
        self,
        alias: str,
        sibling_asn: Optional[ASN] = None,
        alias2: str = "",
    ) -> SynthesizedText:
        """An aka value, optionally naming a sibling ASN."""
        if sibling_asn is not None:
            template = self._rng.choice(tuple(_AKA_WITH_ASN))
            return SynthesizedText(
                text=template.format(alias=alias, asn=sibling_asn),
                true_siblings=(sibling_asn,),
            )
        template = self._rng.choice(tuple(_AKA_PLAIN))
        return SynthesizedText(
            text=template.format(alias=alias, alias2=alias2 or alias.upper()),
            true_siblings=(),
        )

    def _upstream_block(self, language: str, upstreams: Sequence[ASN]) -> str:
        headers = _UPSTREAM_HEADERS.get(language, _UPSTREAM_HEADERS["en"])
        header = self._rng.choice(tuple(headers))
        if self._rng.random() < 0.6:
            bullets = "\n".join(f"- Provider (AS{asn})" for asn in upstreams)
            return f"{header}\n{bullets}"
        inline = ", ".join(f"AS{asn}" for asn in upstreams)
        return f"{header} {inline}"
