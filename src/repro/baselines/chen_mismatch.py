"""Chen et al.'s mismatch-driven sibling refinement (PAM 2023).

§2.1: "Chen et al. followed a complementary path, identifying mismatches
between CAIDA's AS2Org dataset and PeeringDB's records.  Their method
flags these discrepancies as candidates for reclassification and uses
keyword matching along with semi-manual inspection to refine mappings."

Implemented fully automated (like the paper evaluates as2org+): a
*mismatch candidate* is a pair of ASNs grouped by exactly one of the two
org-ID sources; the candidate is accepted when the WHOIS/PDB organization
names behind the pair agree on their distinctive keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from ..core.mapping import OrgMapping
from ..core.org_keys import oid_w_clusters
from ..peeringdb import PDBSnapshot
from ..types import ASN, Cluster
from ..whois import WhoisDataset

#: Generic corporate tokens that carry no identity signal.
_STOPWORDS = frozenset(
    {
        "the", "of", "and", "de", "do", "da", "llc", "inc", "ltd", "sa",
        "sas", "gmbh", "ag", "bv", "plc", "co", "corp", "company",
        "telecom", "telekom", "telecommunications", "communications",
        "comunicaciones", "internet", "network", "networks", "net",
        "cable", "fibra", "broadband", "wireless", "movil", "carrier",
        "services", "group", "holdings", "international", "global",
    }
)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def name_keywords(name: str) -> FrozenSet[str]:
    """The distinctive tokens of an organization name."""
    tokens = set(_TOKEN_RE.findall(name.lower()))
    distinctive = tokens - _STOPWORDS
    return frozenset(t for t in distinctive if len(t) >= 3 or t.isdigit())


def keyword_match(name_a: str, name_b: str) -> bool:
    """Do two org names share any distinctive keyword?"""
    return bool(name_keywords(name_a) & name_keywords(name_b))


@dataclass(frozen=True)
class MismatchCandidate:
    """A sibling candidate one source asserts and the other misses."""

    cluster: Cluster
    source: str  # "pdb_only" or "whois_only"
    accepted: bool
    reason: str


def _member_text(pdb: PDBSnapshot, asn: ASN) -> str:
    """The PDB-side text Chen et al. keyword-match for one network."""
    net = pdb.nets[asn]
    return " ".join((net.name, net.aka, net.notes))


def find_mismatch_candidates(
    whois: WhoisDataset, pdb: PDBSnapshot
) -> List[MismatchCandidate]:
    """All cross-source disagreements, scored by keyword matching."""
    whois_org_of: Dict[ASN, str] = {
        asn: whois.org_id_of(asn) for asn in whois.asns()
    }
    candidates: List[MismatchCandidate] = []
    for org_id, members in sorted(pdb.org_members().items()):
        if len(members) < 2:
            continue
        whois_orgs = {whois_org_of.get(a) for a in members}
        whois_orgs.discard(None)
        if len(whois_orgs) <= 1:
            continue  # sources agree
        # PDB groups what WHOIS splits: accept when, for every WHOIS org
        # in the span, the PDB-side text of its member nets (name, aka,
        # notes — what Chen et al. keyword-match against) shares
        # distinctive keywords with the PDB organization's name or with
        # the other WHOIS orgs' names.
        pdb_name = pdb.orgs[org_id].name
        names = [whois.orgs[w].name for w in sorted(whois_orgs)]
        reference = pdb_name + " " + " ".join(names)
        members_by_whois: Dict[str, List[ASN]] = {}
        for asn in members:
            whois_org = whois_org_of.get(asn)
            if whois_org is not None:
                members_by_whois.setdefault(whois_org, []).append(asn)
        accepted = all(
            any(
                keyword_match(_member_text(pdb, asn), reference)
                for asn in member_asns
            )
            for member_asns in members_by_whois.values()
        )
        reason = (
            f"PDB org {pdb_name!r} spans WHOIS orgs {names}"
            + ("; keywords agree" if accepted else "; keywords disagree")
        )
        candidates.append(
            MismatchCandidate(
                cluster=frozenset(members),
                source="pdb_only",
                accepted=accepted,
                reason=reason,
            )
        )
    return candidates


def build_chen_mapping(
    whois: WhoisDataset, pdb: PDBSnapshot
) -> OrgMapping:
    """The mismatch-refinement mapping: AS2Org + accepted candidates."""
    clusters: List[Cluster] = list(oid_w_clusters(whois))
    clusters.extend(
        c.cluster for c in find_mismatch_candidates(whois, pdb) if c.accepted
    )
    org_names = {asn: whois.org_name_of(asn) for asn in whois.asns()}
    return OrgMapping(
        universe=whois.asns(),
        clusters=clusters,
        method="chen-mismatch",
        org_names=org_names,
    )
