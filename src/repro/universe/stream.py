"""Streaming universe generation: plan → lazy org chunks → assembly.

The legacy generator materialized every org, registry record and web
page in memory before returning.  This module splits generation into
three phases so a million-ASN universe can be produced incrementally:

1. **Plan** (:func:`build_plan`) — cheap per-org seeds: category,
   conglomerate shape, brand count and the exact ASN blocks, plus the
   plan-level facts that need a global view (the transit pool and the
   tier-1/tier-2 backbone membership).  The plan is small: no names, no
   registry records, no web pages.
2. **Materialize** (:func:`materialize_chunk` / :func:`stream_chunks`) —
   org-complete chunks carrying every exported view of their orgs:
   ground-truth entities, WHOIS orgs + delegations, PeeringDB orgs +
   nets, web sites, annotations, raw population draws and stub topology
   edges.
3. **Assemble** (:func:`assemble_universe`) — fold chunks into the full
   :class:`Universe`: build datasets, normalize populations to
   ``config.total_users``, and emit the tier-1/tier-2 backbone edges.

**Determinism contract.**  Every random draw hangs off a *named RNG
substream* keyed only by ``(purpose, config.seed, org_index)`` —
``org-shape`` (plan), ``org-body`` (entity/registry draws), ``org-web``
(site liveness + redirect chains), ``names`` (via
:class:`~repro.universe.names.OrgNamer`), and per-org
:class:`~repro.universe.notes_synth.NotesSynthesizer` streams — plus the
chunk-independent ``canonical`` and ``topology`` streams.  Because no
stream is shared across orgs, any chunk can be regenerated in isolation,
the universe is invariant to ``chunk_size``, and streaming produces a
byte-identical universe to collect-all materialization.  Identifiers
that were previously global counters are now derived from the org index
(WHOIS handles ``WO-<org_index>-<ordinal>-<RIR>``, PeeringDB org ids
``org_index * 32 + ordinal + 1``, brand tokens suffixed with the org
index), so no cross-org coordination is needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..apnic import ApnicDataset, PopulationRecord
from ..asrank import ASRank, ASTopology, compute_rank
from ..config import UniverseConfig
from ..errors import DataError
from ..obs.log import get_event_log
from ..peeringdb import Network, Organization, PDBSnapshot
from ..types import ASN
from ..web.simweb import (
    FRAMEWORK_FAVICON_BRANDS,
    SimulatedWeb,
    Site,
    is_framework_favicon_brand,
    make_favicon,
)
from ..whois import ASNDelegation, WhoisDataset, WhoisOrg
from .canonical import CanonicalPlan, build_canonical_plan
from .entities import Brand, GroundTruth, Org, OrgCategory
from .events import EventKind, MnAEvent, Timeline
from .names import PLATFORM_HOSTS, OrgNamer
from .notes_synth import NotesSynthesizer
from .web_synth import plant_org_redirects, plant_org_sites

#: Synthetic ASNs are allocated upward from here; canonical scenario ASNs
#: all sit below (see :mod:`repro.universe.canonical`).
SYNTHETIC_ASN_BASE = 100_001

#: Orgs per materialized chunk when the caller does not choose.
DEFAULT_CHUNK_ORGS = 1024

#: Government-style many-ASN registrants (the DoD pattern).
N_GOVERNMENT_ORGS = 2

#: PeeringDB org ids are ``org_index * stride + local_ordinal + 1``; the
#: stride bounds how many distinct PDB org keys one org may mint (worst
#: case today: 26 brands, each its own key, plus a consolidated key).
PDB_ORG_ID_STRIDE = 32

_RIR_BY_REGION = {
    "northam": "arin",
    "latam": "lacnic",
    "caribbean": "lacnic",
    "europe": "ripencc",
    "apac": "apnic",
    "africa": "afrinic",
    "mideast": "ripencc",
}

_CATEGORY_WEIGHTS = (
    (OrgCategory.ACCESS, 0.40),
    (OrgCategory.ENTERPRISE, 0.35),
    (OrgCategory.TRANSIT, 0.15),
    (OrgCategory.CONTENT, 0.10),
)

#: Brand ASN-count distribution (heavy-tailed; mirrors WHOIS org sizes,
#: whose mean in the paper's snapshot is 1.23 ASNs per organization).
_BRAND_SIZE_TABLE = (
    (1, 0.890), (2, 0.070), (3, 0.020), (4, 0.008), (5, 0.005),
    (8, 0.003), (12, 0.002), (20, 0.001), (40, 0.0005),
)

#: Conglomerate-probability multipliers per category: carriers grow by
#: acquisition far more often than enterprises (the Fig. 1 dynamic).
_CONGLOMERATE_MULTIPLIER = {
    OrgCategory.TRANSIT: 3.0,
    OrgCategory.CONTENT: 2.0,
    OrgCategory.ACCESS: 1.5,
    OrgCategory.ENTERPRISE: 0.5,
}

#: Anonymous hosting-template favicon families beyond the named ones;
#: each groups a few unrelated small sites (Table 5's TN population).
_N_TEMPLATE_FAMILIES = 36


@dataclass
class Annotations:
    """Ground truth for the validation tables (Tables 4–5)."""

    #: PDB net ASN → sibling ASNs truly embedded in its notes+aka text.
    notes_truth: Dict[ASN, Tuple[ASN, ...]] = field(default_factory=dict)
    #: favicon brand token → is it a real company's logo (vs framework)?
    favicon_company: Dict[str, bool] = field(default_factory=dict)


@dataclass
class Universe:
    """One complete synthetic Internet with all exported views."""

    config: UniverseConfig
    ground_truth: GroundTruth
    timeline: Timeline
    whois: WhoisDataset
    pdb: PDBSnapshot
    web: SimulatedWeb
    apnic: ApnicDataset
    topology: ASTopology
    annotations: Annotations
    _rank: Optional[ASRank] = None

    @property
    def asrank(self) -> ASRank:
        """The AS-Rank table (computed lazily, cached)."""
        if self._rank is None:
            self._rank = compute_rank(self.topology)
        return self._rank

    def summary(self) -> Dict[str, float]:
        stats: Dict[str, float] = {}
        stats.update({f"gt_{k}": v for k, v in self.ground_truth.stats().items()})
        stats.update({f"whois_{k}": v for k, v in self.whois.stats().items()})
        stats.update(
            {f"pdb_{k}": float(v) for k, v in self.pdb.stats().items()}
        )
        stats.update({f"web_{k}": float(v) for k, v in self.web.stats().items()})
        stats["apnic_total_users"] = float(self.apnic.total_users)
        stats["topology_asns"] = float(len(self.topology))
        return stats


def _is_carrier(org: Org) -> bool:
    """A serial-acquirer transit carrier (many branded subsidiaries)."""
    return (
        org.category is OrgCategory.TRANSIT
        and org.is_conglomerate
        and len(org.brands) >= 5
    )


# -- plan phase -------------------------------------------------------------


@dataclass(frozen=True)
class OrgSeed:
    """The cheap shape of one planned org: everything but the content."""

    #: Global org index; canonical orgs occupy ``[0, n_canonical)``.
    index: int
    org_id: str
    kind: str  # "random" | "government"
    category: OrgCategory
    is_conglomerate: bool
    carrier_scale: bool
    #: Exact ASN block per brand, in brand order.
    brand_asns: Tuple[Tuple[ASN, ...], ...]

    @property
    def n_brands(self) -> int:
        return len(self.brand_asns)

    @property
    def size(self) -> int:
        return sum(len(block) for block in self.brand_asns)

    @property
    def asns(self) -> List[ASN]:
        result: List[ASN] = []
        for block in self.brand_asns:
            result.extend(block)
        return sorted(result)

    @property
    def flagship_primary_asn(self) -> ASN:
        return min(self.brand_asns[0])

    @property
    def is_carrier(self) -> bool:
        return (
            self.category is OrgCategory.TRANSIT
            and self.is_conglomerate
            and self.n_brands >= 5
        )


@dataclass
class UniversePlan:
    """Seeds plus the plan-level facts that need a global view."""

    config: UniverseConfig
    canonical: CanonicalPlan
    seeds: Tuple[OrgSeed, ...]
    #: Primary ASN of every transit brand (upstream-notes candidates).
    transit_pool: Tuple[ASN, ...]
    tier1: Tuple[ASN, ...]
    tier2: Tuple[ASN, ...]
    chunk_size: int

    @property
    def n_canonical(self) -> int:
        return len(self.canonical.orgs)

    @property
    def n_orgs(self) -> int:
        return self.n_canonical + len(self.seeds)

    @property
    def n_asns(self) -> int:
        return len(self.canonical.all_asns()) + sum(s.size for s in self.seeds)

    @property
    def n_chunks(self) -> int:
        """Chunk 0 is the canonical bundle; seeds fill the rest."""
        return 1 + -(-len(self.seeds) // self.chunk_size) if self.seeds else 1

    def seed_slice(self, chunk_index: int) -> Sequence[OrgSeed]:
        if chunk_index <= 0:
            return ()
        lo = (chunk_index - 1) * self.chunk_size
        return self.seeds[lo: lo + self.chunk_size]


def _draw_category(rng: random.Random) -> OrgCategory:
    roll = rng.random()
    acc = 0.0
    for category, weight in _CATEGORY_WEIGHTS:
        acc += weight
        if roll < acc:
            return category
    return OrgCategory.ENTERPRISE


def _draw_brand_size(rng: random.Random, config: UniverseConfig) -> int:
    roll = rng.random()
    acc = 0.0
    for size, weight in _BRAND_SIZE_TABLE:
        acc += weight
        if roll < acc:
            return size
    return rng.randint(40, config.max_org_asns)


def _geometric(rng: random.Random, mean: float) -> int:
    """Geometric draw with the given mean (0 when mean is 0)."""
    if mean <= 0:
        return 0
    p = 1.0 / (1.0 + mean)
    count = 0
    while rng.random() > p and count < 60:
        count += 1
    return count


def build_plan(
    config: Optional[UniverseConfig] = None,
    chunk_size: Optional[int] = None,
) -> UniversePlan:
    """Draw every org's shape and allocate its exact ASN blocks.

    ASN blocks are allocated sequentially from :data:`SYNTHETIC_ASN_BASE`
    (skipping the canonical scenarios' reserved ASNs), so a seed's blocks
    depend only on the sizes of the seeds before it — all drawn from
    per-org ``org-shape`` substreams — never on any materialized content.
    """
    cfg = (config or UniverseConfig()).validate()
    canonical = build_canonical_plan()
    reserved = frozenset(canonical.all_asns())
    n_canonical = len(canonical.orgs)
    cursor = SYNTHETIC_ASN_BASE

    def allocate(count: int) -> Tuple[ASN, ...]:
        nonlocal cursor
        block: List[ASN] = []
        while len(block) < count:
            if cursor not in reserved:
                block.append(cursor)
            cursor += 1
        return tuple(block)

    seeds: List[OrgSeed] = []
    for i in range(cfg.n_organizations):
        shape = random.Random(repr(("org-shape", cfg.seed, i)))
        category = _draw_category(shape)
        conglomerate_p = min(
            0.5,
            cfg.conglomerate_fraction * _CONGLOMERATE_MULTIPLIER[category],
        )
        is_conglomerate = shape.random() < conglomerate_p
        carrier_scale = False
        n_brands = 1
        if is_conglomerate:
            carrier_scale = (
                category is OrgCategory.TRANSIT and shape.random() < 0.30
            )
            if carrier_scale:
                # Large carriers built by serial acquisition (Lumen, GTT...).
                n_brands = shape.randint(5, 12)
            else:
                mean_extra = max(0.0, cfg.mean_subsidiaries - 1.0)
                n_brands = min(2 + _geometric(shape, mean_extra), 26)
        brand_asns = tuple(
            allocate(_draw_brand_size(shape, cfg)) for _ in range(n_brands)
        )
        seeds.append(
            OrgSeed(
                index=n_canonical + i,
                org_id=f"org-{i:05d}",
                kind="random",
                category=category,
                is_conglomerate=is_conglomerate,
                carrier_scale=carrier_scale,
                brand_asns=brand_asns,
            )
        )
    # A couple of government-style registrants: one WHOIS org holding
    # very many ASNs (the DoD pattern that anchors AS2Org's θ).
    for g in range(N_GOVERNMENT_ORGS):
        size = max(2, cfg.max_org_asns - g * 30)
        seeds.append(
            OrgSeed(
                index=n_canonical + cfg.n_organizations + g,
                org_id=f"gov-{g}",
                kind="government",
                category=OrgCategory.ENTERPRISE,
                is_conglomerate=False,
                carrier_scale=False,
                brand_asns=(allocate(size),),
            )
        )
    transit_pool, tier1, tier2 = _plan_backbone(canonical, seeds)
    return UniversePlan(
        config=cfg,
        canonical=canonical,
        seeds=tuple(seeds),
        transit_pool=transit_pool,
        tier1=tier1,
        tier2=tier2,
        chunk_size=max(1, int(chunk_size or DEFAULT_CHUNK_ORGS)),
    )


def _plan_backbone(
    canonical: CanonicalPlan, seeds: Sequence[OrgSeed]
) -> Tuple[Tuple[ASN, ...], Tuple[ASN, ...], Tuple[ASN, ...]]:
    """Transit pool + tier-1/tier-2 membership, from shapes alone.

    Tier 1 is the carrier clique: the conglomerates built by serial
    acquisition sit at the top of AS-Rank in the real Internet (Lumen,
    GTT, Zayo...), ahead of large single-entity registrants.
    """
    # (org_id, carrier, conglomerate, size, flagship_primary, all_asns)
    entries: List[Tuple[str, bool, bool, int, ASN, List[ASN]]] = []
    for org in canonical.orgs:
        if org.category is not OrgCategory.TRANSIT:
            continue
        entries.append(
            (
                org.org_id,
                _is_carrier(org),
                org.is_conglomerate,
                org.size,
                org.brands[0].primary_asn,
                list(org.asns),
            )
        )
    for seed in seeds:
        if seed.category is not OrgCategory.TRANSIT:
            continue
        entries.append(
            (
                seed.org_id,
                seed.is_carrier,
                seed.is_conglomerate,
                seed.size,
                seed.flagship_primary_asn,
                seed.asns,
            )
        )
    # The upstream-notes pool holds only *synthetic* transit primaries.
    # Canonical scenario clusters are test anchors with exact expected
    # memberships (Fig. 9 counts, the Lumen split); if drawn notes could
    # name canonical ASNs, an injected extract_upstream error — keyed by
    # the reporting ASN, so it fires deterministically — would fuse a
    # narrated cluster with an unrelated org on some seeds.  Canonical
    # upstream narratives are planted explicitly (Maxihost, Appendix B).
    transit_pool: List[ASN] = []
    for seed in seeds:
        if seed.category is OrgCategory.TRANSIT:
            transit_pool.extend(min(block) for block in seed.brand_asns)
    entries.sort(key=lambda e: e[0])
    entries.sort(key=lambda e: (-int(e[1]), -int(e[2]), -e[3]))
    tier1: List[ASN] = []
    tier2: List[ASN] = []
    for i, entry in enumerate(entries):
        if i < 10:
            # One clique member per organization: the flagship's primary
            # ASN (real tier-1 cliques are a dozen comparable giants, not
            # every subsidiary of every carrier).
            tier1.append(entry[4])
            tier2.extend(a for a in entry[5] if a != entry[4])
        else:
            tier2.extend(entry[5])
    tier1 = sorted(set(tier1))
    tier2 = sorted(set(tier2) - set(tier1))
    if not tier1:
        lowest = canonical.all_asns()
        universe_min = lowest[0] if lowest else SYNTHETIC_ASN_BASE
        for seed in seeds:
            if seed.brand_asns:
                universe_min = min(universe_min, seed.flagship_primary_asn)
        tier1 = [universe_min]
    return tuple(sorted(transit_pool)), tuple(tier1), tuple(tier2)


# -- materialization phase --------------------------------------------------


@dataclass
class UniverseChunk:
    """Every exported view of one org-complete slice of the universe."""

    index: int
    orgs: List[Org] = field(default_factory=list)
    events: List[MnAEvent] = field(default_factory=list)
    whois_orgs: List[WhoisOrg] = field(default_factory=list)
    delegations: List[ASNDelegation] = field(default_factory=list)
    pdb_orgs: List[Organization] = field(default_factory=list)
    nets: List[Network] = field(default_factory=list)
    sites: List[Site] = field(default_factory=list)
    notes_truth: Dict[ASN, Tuple[ASN, ...]] = field(default_factory=dict)
    favicon_company: Dict[str, bool] = field(default_factory=dict)
    #: Un-normalized (asn, country, weight) population draws; assembly
    #: scales them so the universe totals ``config.total_users``.
    raw_populations: List[Tuple[ASN, str, float]] = field(default_factory=list)
    #: (provider, customer) edges for this chunk's stub ASNs.
    stub_edges: List[Tuple[ASN, ASN]] = field(default_factory=list)

    @property
    def n_asns(self) -> int:
        return len(self.delegations)


def materialize_chunk(plan: UniversePlan, index: int) -> UniverseChunk:
    """Materialize one chunk in isolation (chunk 0 = canonical bundle)."""
    if index < 0 or index >= plan.n_chunks:
        raise DataError(
            f"chunk {index} out of range (plan has {plan.n_chunks})"
        )
    if index == 0:
        return _materialize_canonical(plan)
    chunk = UniverseChunk(index=index)
    transit_set = set(plan.tier1) | set(plan.tier2)
    providers_pool = plan.tier2 or plan.tier1
    for seed in plan.seed_slice(index):
        _materialize_org(plan, seed, transit_set, providers_pool, chunk)
    return chunk


def stream_chunks(plan: UniversePlan) -> Iterator[UniverseChunk]:
    """Lazily yield every chunk of the plan, in order."""
    for index in range(plan.n_chunks):
        yield materialize_chunk(plan, index)


def _materialize_org(
    plan: UniversePlan,
    seed: OrgSeed,
    transit_set: Set[ASN],
    providers_pool: Sequence[ASN],
    chunk: UniverseChunk,
) -> None:
    cfg = plan.config
    body = random.Random(repr(("org-body", cfg.seed, seed.index)))
    webrng = random.Random(repr(("org-web", cfg.seed, seed.index)))
    notes = NotesSynthesizer((cfg.seed, seed.index))
    if seed.kind == "government":
        org = _government_org(seed)
    else:
        org = _random_org_body(cfg, seed, body)
        chunk.events.extend(_random_events(org, body))
    chunk.orgs.append(org)
    _export_org_whois(plan, seed.index, org, body, chunk)
    sites: Dict[str, Site] = {}
    plant_org_sites(sites, org, webrng, cfg)
    plant_org_redirects(sites, org, webrng, cfg)
    chunk.sites.extend(sites.values())
    _export_org_pdb(plan, seed.index, org, body, notes, chunk, plan.transit_pool)
    _annotate_org_favicons(org, chunk)
    _org_populations(org, body, chunk)
    _org_stub_edges(org, body, plan.tier1, transit_set, providers_pool, chunk)


def _random_org_body(
    cfg: UniverseConfig, seed: OrgSeed, body: random.Random
) -> Org:
    namer = OrgNamer(cfg.seed, seed.index)
    category = seed.category
    name = namer.company_name(category.value)
    token = namer.brand_token(name)
    region = namer.pick_region()
    org = Org(
        org_id=seed.org_id,
        name=name,
        category=category,
        region=region,
        is_conglomerate=seed.is_conglomerate,
        brand_token=token,
    )
    countries = namer.pick_countries(region, seed.n_brands)
    unified_branding = body.random() < (0.85 if seed.carrier_scale else 0.30)
    acquired_p = 0.75 if seed.carrier_scale else 0.30
    for b, (country, cctld) in enumerate(countries):
        brand_name = name if b == 0 else f"{name} {country}"
        brand_token = token if (b == 0 or unified_branding) else (
            namer.brand_token(namer.company_name(category.value))
        )
        brand = Brand(
            brand_id=f"{seed.org_id}/b{b}",
            name=brand_name,
            org_id=seed.org_id,
            country=country,
            cctld=cctld,
            asns=list(seed.brand_asns[b]),
            language=namer.language_for(region),
            acquired=(b > 0 and body.random() < acquired_p),
        )
        _assign_website(cfg, org, brand, brand_token, unified_branding, body)
        org.brands.append(brand)
    return org


def _government_org(seed: OrgSeed) -> Org:
    g = int(seed.org_id.rsplit("-", 1)[1])
    org = Org(
        org_id=seed.org_id,
        name=f"National Networks Agency {g}",
        category=OrgCategory.ENTERPRISE,
        region="northam" if g == 0 else "europe",
    )
    country, cctld = ("US", "com") if g == 0 else ("DE", "de")
    org.brands = [
        Brand(
            brand_id=f"{seed.org_id}/main",
            name=org.name,
            org_id=org.org_id,
            country=country,
            cctld=cctld,
            asns=list(seed.brand_asns[0]),
        )
    ]
    return org


def _random_events(org: Org, rng: random.Random) -> List[MnAEvent]:
    if not org.is_conglomerate:
        return []
    events = []
    year = 2006 + rng.randint(0, 4)
    for brand in org.brands:
        if brand.acquired:
            # Serial acquirers buy a company every year or two; cap at
            # the snapshot's present (2024).
            year = min(2024, year + rng.randint(1, 3))
            events.append(
                MnAEvent(
                    kind=EventKind.ACQUISITION,
                    year=year,
                    subject_org=org.org_id,
                    object_id=brand.brand_id,
                )
            )
    return events


def _framework_brand(rng: random.Random) -> str:
    families = list(FRAMEWORK_FAVICON_BRANDS) + [
        f"webtemplate{k}-default" for k in range(_N_TEMPLATE_FAMILIES)
    ]
    return rng.choice(families)


def _assign_website(
    cfg: UniverseConfig,
    org: Org,
    brand: Brand,
    brand_token: str,
    unified: bool,
    rng: random.Random,
) -> None:
    has_site = rng.random() < (0.92 if org.is_conglomerate else 0.82)
    if not has_site:
        return
    token = org.brand_token if (unified and org.is_conglomerate) else brand_token
    host = f"www.{token}.{brand.cctld}"
    brand.website_host = host
    small = not org.is_conglomerate and len(brand.asns) <= 2
    if small and rng.random() < cfg.framework_favicon_rate:
        brand.favicon_brand = _framework_brand(rng)
    elif unified and org.is_conglomerate:
        # Unified branding usually means a unified logo too — the
        # same-favicon + same-token population step 1 resolves.  Some
        # subsidiaries nevertheless serve a localized icon variant,
        # which breaks the favicon link (the §5.3 DE-CIX example is
        # this divergence in the wild).
        brand.favicon_brand = (
            org.brand_token
            if rng.random() < 0.5
            else f"{org.brand_token}-{brand.country.lower()}-variant"
        )
    elif rng.random() < cfg.shared_favicon_rate:
        brand.favicon_brand = org.brand_token
    else:
        brand.favicon_brand = brand_token


def _export_org_whois(
    plan: UniversePlan,
    org_index: int,
    org: Org,
    rng: random.Random,
    chunk: UniverseChunk,
) -> None:
    cfg = plan.config
    local: Dict[str, WhoisOrg] = {}

    def whois_org_for(key: str, name: str, country: str, region: str) -> WhoisOrg:
        if key not in local:
            rir = _RIR_BY_REGION.get(region, "arin")
            handle = f"WO-{org_index:06d}-{len(local):02d}-{rir.upper()}"
            local[key] = WhoisOrg(
                org_id=handle, name=name, country=country, source=rir
            )
        return local[key]

    for brand in org.brands:
        key = plan.canonical.whois_group.get(brand.brand_id)
        if key is None:
            fragmented = (
                org.is_conglomerate
                and rng.random() < cfg.whois_fragmentation_rate
            )
            key = f"W:{brand.brand_id}" if fragmented else f"W:{org.org_id}"
        display = (
            brand.name if key.startswith("W:" + brand.brand_id) else org.name
        )
        record = whois_org_for(key, display, brand.country, org.region)
        for asn in brand.asns:
            chunk.delegations.append(
                ASNDelegation(
                    asn=asn,
                    org_id=record.org_id,
                    name=brand.name,
                    source=record.source,
                )
            )
    chunk.whois_orgs.extend(local.values())


def _export_org_pdb(
    plan: UniversePlan,
    org_index: int,
    org: Org,
    rng: random.Random,
    notes: NotesSynthesizer,
    chunk: UniverseChunk,
    transit_pool: Sequence[ASN],
) -> None:
    cfg = plan.config
    local: Dict[str, Organization] = {}

    def pdb_org_for(key: str, name: str, country: str) -> int:
        if key not in local:
            local[key] = Organization(
                org_id=org_index * PDB_ORG_ID_STRIDE + len(local) + 1,
                name=name,
                country=country,
            )
        return local[key].org_id

    for brand in org.brands:
        if not _registers_in_pdb(cfg, org, brand, plan.canonical, rng):
            continue
        key = plan.canonical.pdb_group.get(brand.brand_id)
        if key is None:
            rate = cfg.pdb_consolidation_rate
            if _is_carrier(org):
                # Serial-acquirer carriers run one NOC and one
                # PeeringDB org (the Lumen/CenturyLink pattern).
                rate = 0.40
            consolidated = org.is_conglomerate and rng.random() < rate
            key = f"P:{org.org_id}" if consolidated else f"P:{brand.brand_id}"
        display = org.name if key == f"P:{org.org_id}" else brand.name
        pdb_org_id = pdb_org_for(key, display, brand.country)
        registered_asns = _registered_asns(brand, plan.canonical, rng)
        for i, asn in enumerate(registered_asns):
            chunk.nets.append(
                _make_net(
                    cfg, plan, org, brand, asn, i, pdb_org_id,
                    rng, notes, chunk, transit_pool,
                )
            )
    chunk.pdb_orgs.extend(local.values())


def _registers_in_pdb(
    cfg: UniverseConfig,
    org: Org,
    brand: Brand,
    canonical: CanonicalPlan,
    rng: random.Random,
) -> bool:
    if brand.brand_id in canonical.register:
        return True
    rate = cfg.pdb_registration_rate
    if org.category in (OrgCategory.TRANSIT, OrgCategory.CONTENT):
        rate = min(0.95, rate * 1.9)
    if org.is_conglomerate:
        rate = min(0.95, rate * 1.4)
    return rng.random() < rate


def _registered_asns(
    brand: Brand, canonical: CanonicalPlan, rng: random.Random
) -> List[ASN]:
    if brand.brand_id in canonical.register:
        return list(brand.asns)
    asns = [brand.primary_asn]
    for asn in brand.asns:
        if asn != brand.primary_asn and rng.random() < 0.7:
            asns.append(asn)
    return sorted(asns)


def _make_net(
    cfg: UniverseConfig,
    plan: UniversePlan,
    org: Org,
    brand: Brand,
    asn: ASN,
    index_in_brand: int,
    pdb_org_id: int,
    rng: random.Random,
    notes: NotesSynthesizer,
    chunk: UniverseChunk,
    transit_pool: Sequence[ASN],
) -> Network:
    name = (
        brand.name
        if index_in_brand == 0
        else f"{brand.name} #{index_in_brand + 1}"
    )
    website = _website_field(cfg, brand, plan.canonical, rng)
    notes_text, aka_text, truth = _text_fields(
        cfg, org, brand, asn, plan, rng, notes, transit_pool
    )
    if notes_text or aka_text:
        chunk.notes_truth[asn] = truth
    info_type = {
        OrgCategory.ACCESS: "Cable/DSL/ISP",
        OrgCategory.TRANSIT: "NSP",
        OrgCategory.CONTENT: "Content",
        OrgCategory.ENTERPRISE: "Enterprise",
    }[org.category]
    return Network(
        asn=asn,
        name=name,
        org_id=pdb_org_id,
        aka=aka_text,
        notes=notes_text,
        website=website,
        info_type=info_type,
    )


def _website_field(
    cfg: UniverseConfig,
    brand: Brand,
    canonical: CanonicalPlan,
    rng: random.Random,
) -> str:
    if brand.brand_id in canonical.website_field:
        return canonical.website_field[brand.brand_id]
    if brand.brand_id.startswith("gt-"):
        return brand.website_url
    if rng.random() < cfg.platform_website_rate:
        return f"https://{rng.choice(PLATFORM_HOSTS)}/"
    if brand.website_host and rng.random() < cfg.website_rate:
        return brand.website_url
    return ""


def _text_fields(
    cfg: UniverseConfig,
    org: Org,
    brand: Brand,
    asn: ASN,
    plan: UniversePlan,
    rng: random.Random,
    notes: NotesSynthesizer,
    transit_pool: Sequence[ASN],
) -> Tuple[str, str, Tuple[ASN, ...]]:
    """Synthesize (notes, aka, true_siblings) for one net record."""
    notes_text = ""
    aka_text = ""
    truth: Set[ASN] = set()

    planted_notes = plan.canonical.notes.get(asn)
    planted_aka = plan.canonical.aka.get(asn)
    if planted_notes is not None:
        notes_text = planted_notes.text
        truth.update(planted_notes.true_siblings)
    if planted_aka is not None:
        aka_text = planted_aka.text
        truth.update(planted_aka.true_siblings)
    if planted_notes is not None or planted_aka is not None:
        return notes_text, aka_text, tuple(sorted(truth))

    if rng.random() >= cfg.notes_rate:
        return "", "", ()
    other_asns = [a for a in org.asns if a != asn]
    can_report_siblings = bool(other_asns)
    # Operators with sibling networks are exactly the ones who write
    # numeric notes (the paper's Table 4 sample: ~60% of numeric
    # records carried true sibling reports).
    numeric_rate = cfg.numeric_notes_rate
    sibling_rate = cfg.sibling_notes_rate
    if can_report_siblings:
        numeric_rate = min(0.9, numeric_rate * 2.0)
        sibling_rate = 0.5
    if rng.random() >= numeric_rate:
        synthesized = notes.plain_notes()
        return synthesized.text, "", ()

    roll = rng.random()
    if can_report_siblings and roll < sibling_rate:
        # Operators mostly list their own brand's other ASNs (already
        # sharing a WHOIS org); cross-brand reports are the rarer,
        # informative case.
        same_brand = [a for a in brand.asns if a != asn]
        pool = same_brand if (same_brand and rng.random() < 0.7) else other_asns
        count = min(len(pool), rng.randint(1, 2))
        siblings = sorted(rng.sample(pool, count))
        upstream = (
            sorted(rng.sample(list(transit_pool), min(3, len(transit_pool))))
            if rng.random() < 0.25 and transit_pool
            else ()
        )
        synthesized = notes.sibling_notes(
            org_name=org.name,
            siblings=siblings,
            language=brand.language,
            with_decoys=rng.random() < 0.3,
            with_upstreams=upstream,
        )
        if rng.random() < 0.3:
            aka_synth = notes.aka(
                alias=f"{org.name} {brand.country}",
                sibling_asn=rng.choice(other_asns),
            )
            aka_text = aka_synth.text
            truth.update(aka_synth.true_siblings)
        notes_text = synthesized.text
        truth.update(synthesized.true_siblings)
    elif roll < 0.75 and transit_pool:
        count = min(len(transit_pool), rng.randint(2, 5))
        synthesized = notes.upstream_notes(
            upstreams=sorted(rng.sample(list(transit_pool), count)),
            language=brand.language,
        )
        notes_text = synthesized.text
    else:
        synthesized = notes.decoy_notes()
        notes_text = synthesized.text
    return notes_text, aka_text, tuple(sorted(truth))


def _annotate_org_favicons(org: Org, chunk: UniverseChunk) -> None:
    for brand in org.brands:
        if not brand.favicon_brand:
            continue
        chunk.favicon_company[brand.favicon_brand] = (
            not is_framework_favicon_brand(brand.favicon_brand)
        )


def _org_populations(
    org: Org, rng: random.Random, chunk: UniverseChunk
) -> None:
    """Heavy-tailed raw user draws for one access org (un-normalized)."""
    if org.category is not OrgCategory.ACCESS:
        return
    boost = 3.0 if org.org_id.startswith("gt-") else 1.0
    for brand in org.brands:
        base = rng.paretovariate(1.16) * 1_000.0 * boost
        if org.is_conglomerate:
            base *= 2.5
        weights = [rng.random() + 0.2 for _ in brand.asns]
        total_weight = sum(weights)
        for asn, weight in zip(brand.asns, weights):
            chunk.raw_populations.append(
                (asn, brand.country, base * weight / total_weight)
            )


def _org_stub_edges(
    org: Org,
    rng: random.Random,
    tier1: Sequence[ASN],
    transit_set: Set[ASN],
    providers_pool: Sequence[ASN],
    chunk: UniverseChunk,
) -> None:
    for asn in org.asns:
        if asn in transit_set:
            continue
        n_providers = rng.randint(1, 3)
        if rng.random() < 0.1 and tier1:
            chunk.stub_edges.append((rng.choice(tier1), asn))
            n_providers -= 1
        for provider in rng.sample(
            providers_pool, min(len(providers_pool), max(1, n_providers))
        ):
            chunk.stub_edges.append((provider, asn))


def _materialize_canonical(plan: UniversePlan) -> UniverseChunk:
    """Chunk 0: the paper's planted scenarios, fully exported."""
    cfg = plan.config
    canonical = plan.canonical
    chunk = UniverseChunk(index=0)
    rng = random.Random(repr(("canonical", cfg.seed)))
    webrng = random.Random(repr(("canonical-web", cfg.seed)))
    notes = NotesSynthesizer((cfg.seed, "canonical"))
    transit_set = set(plan.tier1) | set(plan.tier2)
    providers_pool = plan.tier2 or plan.tier1

    chunk.events.extend(canonical.events)
    for ci, org in enumerate(canonical.orgs):
        chunk.orgs.append(org)
        _export_org_whois(plan, ci, org, rng, chunk)

    sites: Dict[str, Site] = {}
    for org in canonical.orgs:
        plant_org_sites(sites, org, webrng, cfg)
    for org in canonical.orgs:
        plant_org_redirects(sites, org, webrng, cfg)
    for extra in canonical.extra_sites:
        if extra.host in sites:
            continue
        site = Site(
            host=extra.host,
            title=extra.title or extra.host,
            favicon=(
                make_favicon(extra.favicon_brand)
                if extra.favicon_brand else b""
            ),
        )
        if extra.redirect_target:
            site.redirect_kind = extra.redirect_kind
            site.redirect_target = extra.redirect_target
        sites[extra.host] = site
    for host, (target, kind) in canonical.redirects.items():
        site = sites.get(host)
        if site is None:
            site = sites[host] = Site(host=host, title=host)
        site.redirect_kind = kind
        site.redirect_target = target
        site.alive = True
    for host in canonical.alive_hosts:
        site = sites.get(host)
        if site is not None:
            site.alive = True
    # Platform hosts (facebook & friends) that small operators point
    # their PDB website at — blocklist targets.
    for host in PLATFORM_HOSTS:
        if host not in sites:
            sites[host] = Site(host=host, title=host, favicon=make_favicon(host))
    chunk.sites.extend(sites.values())

    for ci, org in enumerate(canonical.orgs):
        # Canonical orgs' drawn filler notes name no foreign ASNs (empty
        # upstream pool): narrated clusters keep their exact paper
        # memberships on every seed (see _plan_backbone).
        _export_org_pdb(plan, ci, org, rng, notes, chunk, ())
        _annotate_org_favicons(org, chunk)
        _org_populations(org, rng, chunk)
        _org_stub_edges(org, rng, plan.tier1, transit_set, providers_pool, chunk)
    return chunk


# -- assembly ---------------------------------------------------------------


def assemble_universe(
    plan: UniversePlan,
    chunks: Optional[Iterator[UniverseChunk]] = None,
) -> Universe:
    """Fold chunks into the full :class:`Universe`.

    The only work that needs a global view happens here: dataset
    construction, population normalization to ``config.total_users``,
    and the tier-1/tier-2 backbone edges (drawn from the dedicated
    ``topology`` substream, independent of every per-org stream).
    """
    cfg = plan.config
    ground_truth = GroundTruth()
    events: List[MnAEvent] = []
    whois_orgs: List[WhoisOrg] = []
    delegations: List[ASNDelegation] = []
    pdb_orgs: List[Organization] = []
    nets: List[Network] = []
    web = SimulatedWeb()
    annotations = Annotations()
    raw_populations: List[Tuple[ASN, str, float]] = []
    stub_edges: List[Tuple[ASN, ASN]] = []

    for chunk in (chunks if chunks is not None else stream_chunks(plan)):
        for org in chunk.orgs:
            ground_truth.add(org)
        events.extend(chunk.events)
        whois_orgs.extend(chunk.whois_orgs)
        delegations.extend(chunk.delegations)
        pdb_orgs.extend(chunk.pdb_orgs)
        nets.extend(chunk.nets)
        for site in chunk.sites:
            if site.host not in web:
                web.add_site(site)
        annotations.notes_truth.update(chunk.notes_truth)
        annotations.favicon_company.update(chunk.favicon_company)
        raw_populations.extend(chunk.raw_populations)
        stub_edges.extend(chunk.stub_edges)
    ground_truth.invalidate_index()

    timeline = Timeline(events=events)
    whois = WhoisDataset.build(whois_orgs, delegations)
    pdb = PDBSnapshot.build(
        orgs=pdb_orgs,
        nets=nets,
        meta={
            "generated": "synthetic",
            "seed": cfg.seed,
            "source": "repro.universe",
        },
    )

    total_raw = sum(v for _, _, v in raw_populations) or 1.0
    scale = cfg.total_users / total_raw
    apnic = ApnicDataset()
    for asn, country, value in raw_populations:
        users = int(value * scale)
        if users > 0:
            apnic.add(PopulationRecord(asn=asn, country=country, users=users))

    topology = _assemble_topology(plan, stub_edges)
    universe = Universe(
        config=cfg,
        ground_truth=ground_truth,
        timeline=timeline,
        whois=whois,
        pdb=pdb,
        web=web,
        apnic=apnic,
        topology=topology,
        annotations=annotations,
    )
    get_event_log().emit(
        "universe.assembled",
        orgs=len(ground_truth),
        asns=len(whois),
        pdb_nets=len(pdb),
        sites=len(web),
    )
    return universe


def _assemble_topology(
    plan: UniversePlan, stub_edges: Sequence[Tuple[ASN, ASN]]
) -> ASTopology:
    """Backbone (tier-1 clique + tier-2 attachments) plus chunk stubs."""
    import itertools

    topology = ASTopology()
    tier1 = list(plan.tier1)
    rng = random.Random(repr(("topology", plan.config.seed)))
    for asn in tier1:
        topology.add_asn(asn)
    for a, b in itertools.combinations(tier1, 2):
        topology.add_p2p(a, b)
    for asn in plan.tier2:
        for provider in rng.sample(tier1, min(len(tier1), rng.randint(2, 3))):
            topology.add_p2c(provider, asn)
    for provider, customer in stub_edges:
        topology.add_p2c(provider, customer)
    return topology
