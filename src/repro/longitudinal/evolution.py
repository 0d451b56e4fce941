"""Historical snapshots and cross-snapshot organization tracking.

The final universe is generated once; an *as-of-year* view rewinds every
acquisition whose event year lies in the future:

* the acquired brand becomes its own ground-truth organization again;
* if its WHOIS/PeeringDB records were consolidated under the acquirer,
  they split back into a dedicated organization;
* its website stops redirecting to the acquirer and serves its own
  landing page (with its own favicon);
* notes/aka mentions of its ASNs in other orgs' records are scrubbed
  (the sibling report had not been written yet).

Borges then runs per snapshot; :func:`detect_merges` diffs consecutive
mappings to recover the merger timeline — the analysis Fig. 1 motivates.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.mapping import OrgMapping
from ..core.pipeline import BorgesPipeline
from ..metrics.org_factor import org_factor_from_mapping
from ..obs.log import get_event_log
from ..peeringdb import Network, Organization, PDBSnapshot
from ..types import ASN, Cluster
from ..universe.entities import Brand, GroundTruth, Org
from ..universe.events import EventKind
from ..universe.generator import Universe
from ..web.http import RedirectKind
from ..web.simweb import SimulatedWeb, Site, make_favicon
from ..whois import ASNDelegation, WhoisDataset, WhoisOrg


@dataclass
class YearSnapshot:
    """One historical year's view of the world."""

    year: int
    whois: WhoisDataset
    pdb: PDBSnapshot
    web: SimulatedWeb
    ground_truth: GroundTruth
    #: Brands whose acquisition had not yet happened as of this year.
    pending_brand_ids: Tuple[str, ...] = ()


@dataclass
class SnapshotSeries:
    """A chronological sequence of snapshots from one universe."""

    universe: Universe
    snapshots: List[YearSnapshot] = field(default_factory=list)

    @property
    def years(self) -> List[int]:
        return [s.year for s in self.snapshots]

    def final(self) -> YearSnapshot:
        return self.snapshots[-1]


def _acquisition_years(universe: Universe) -> Dict[str, int]:
    """brand_id → year it joined its current org (from the timeline).

    Random orgs' events name brand ids directly; canonical events name
    legacy org ids (e.g. ``gt-sprint-legacy``), so acquired canonical
    brands fall back to their org's earliest acquisition year.  Only
    valid brand ids appear in the result.
    """
    valid_brand_ids = {
        brand.brand_id for brand in universe.ground_truth.all_brands()
    }
    years: Dict[str, int] = {}
    for event in universe.timeline:
        if (
            event.kind in (EventKind.ACQUISITION, EventKind.MERGER)
            and event.object_id in valid_brand_ids
        ):
            years[event.object_id] = event.year
    for org in universe.ground_truth.all_orgs():
        for brand in org.brands:
            if brand.acquired and brand.brand_id not in years:
                matching = [
                    e.year for e in universe.timeline.involving(org.org_id)
                    if e.kind in (EventKind.ACQUISITION, EventKind.MERGER)
                ]
                years[brand.brand_id] = min(matching) if matching else 2015
    return years


def build_snapshot_series(
    universe: Universe,
    years: Optional[Sequence[int]] = None,
) -> SnapshotSeries:
    """Materialize as-of-year views of *universe*.

    Default years span the timeline from just before the first event to
    just after the last, in 4 steps, plus the present (all events done).
    """
    acquisition_years = _acquisition_years(universe)
    if years is None:
        event_years = sorted(set(acquisition_years.values())) or [2015]
        first, last = event_years[0] - 1, event_years[-1] + 1
        span = max(1, last - first)
        years = sorted(
            {first, first + span // 3, first + 2 * span // 3, last}
        )
    series = SnapshotSeries(universe=universe)
    for year in years:
        series.snapshots.append(
            _as_of_year(universe, year, acquisition_years)
        )
    return series


def _as_of_year(
    universe: Universe, year: int, acquisition_years: Dict[str, int]
) -> YearSnapshot:
    pending = {
        brand_id
        for brand_id, event_year in acquisition_years.items()
        if event_year > year
    }
    pending_brands: List[Brand] = [
        brand
        for brand in universe.ground_truth.all_brands()
        if brand.brand_id in pending
    ]
    pending_asns: Set[ASN] = set()
    for brand in pending_brands:
        pending_asns.update(brand.asns)

    ground_truth = _split_ground_truth(universe.ground_truth, pending)
    whois = _split_whois(universe, pending_brands)
    pdb = _split_pdb(universe, pending_brands, pending_asns)
    web = _rewind_web(universe, pending_brands)
    return YearSnapshot(
        year=year,
        whois=whois,
        pdb=pdb,
        web=web,
        ground_truth=ground_truth,
        pending_brand_ids=tuple(sorted(pending)),
    )


def _split_ground_truth(
    ground_truth: GroundTruth, pending: Set[str]
) -> GroundTruth:
    """Clone the truth with not-yet-acquired brands as their own orgs."""
    result = GroundTruth()
    for org in ground_truth.all_orgs():
        kept = [b for b in org.brands if b.brand_id not in pending]
        split = [b for b in org.brands if b.brand_id in pending]
        if kept:
            clone = dataclasses.replace(org)
            clone.brands = kept
            result.add(clone)
        for brand in split:
            independent = Org(
                org_id=f"{org.org_id}::pre::{brand.brand_id.split('/')[-1]}",
                name=brand.name,
                category=org.category,
                region=org.region,
                brand_token=brand.name.split()[0].lower(),
            )
            standalone = dataclasses.replace(brand, acquired=False)
            standalone.org_id = independent.org_id
            independent.brands = [standalone]
            result.add(independent)
    return result


def _split_whois(
    universe: Universe, pending_brands: List[Brand]
) -> WhoisDataset:
    """Give each pending brand its own WHOIS org where it shared one."""
    whois = universe.whois
    orgs: Dict[str, WhoisOrg] = dict(whois.orgs)
    delegations: Dict[ASN, ASNDelegation] = dict(whois.delegations)
    for brand in pending_brands:
        member_orgs = {delegations[a].org_id for a in brand.asns}
        org_asns = universe.ground_truth.orgs[brand.org_id].asns
        shared = any(
            delegations[other].org_id in member_orgs
            for other in org_asns
            if other not in brand.asns
        )
        if not shared:
            continue
        handle = f"WO-PRE-{brand.brand_id.replace('/', '-').upper()}"
        source = delegations[brand.primary_asn].source
        orgs[handle] = WhoisOrg(
            org_id=handle, name=brand.name,
            country=brand.country, source=source,
        )
        for asn in brand.asns:
            delegations[asn] = dataclasses.replace(
                delegations[asn], org_id=handle
            )
    return WhoisDataset.build(orgs.values(), delegations.values())


_ASN_TOKEN_TEMPLATE = r"(?:,?\s*(?:and\s+)?)?\bAS[N]?[\s:#-]{{0,2}}{asn}\b"


def _scrub_asn_mentions(text: str, asns: Set[ASN]) -> str:
    """Remove mentions of *asns* from free text (future siblings)."""
    for asn in asns:
        text = re.sub(_ASN_TOKEN_TEMPLATE.format(asn=asn), "", text)
    return text


def _split_pdb(
    universe: Universe, pending_brands: List[Brand], pending_asns: Set[ASN]
) -> PDBSnapshot:
    """Split pending brands into their own PDB orgs; scrub stale notes."""
    pdb = universe.pdb
    orgs: Dict[int, Organization] = {
        o.org_id: o for o in pdb.organizations()
    }
    next_org_id = max(orgs) + 1 if orgs else 1
    org_of_brand: Dict[str, int] = {}
    nets: List[Network] = []
    for net in pdb.networks():
        record = net
        if net.asn in pending_asns:
            brand = universe.ground_truth.brand_of_asn(net.asn)
            members = pdb.org_members().get(net.org_id, [])
            outside = [a for a in members if a not in set(brand.asns)]
            if outside:
                if brand.brand_id not in org_of_brand:
                    orgs[next_org_id] = Organization(
                        org_id=next_org_id,
                        name=brand.name,
                        country=brand.country,
                    )
                    org_of_brand[brand.brand_id] = next_org_id
                    next_org_id += 1
                record = dataclasses.replace(
                    record, org_id=org_of_brand[brand.brand_id]
                )
        scrub = pending_asns - {record.asn}
        if net.asn in pending_asns:
            # The pending brand itself had not written sibling reports
            # about its future parent either: scrub the parent org's
            # other ASNs from its own record.
            brand = universe.ground_truth.brand_of_asn(net.asn)
            org_asns = set(universe.ground_truth.orgs[brand.org_id].asns)
            scrub |= org_asns - set(brand.asns)
        if record.freeform_text and any(
            str(a) in record.freeform_text for a in scrub
        ):
            record = dataclasses.replace(
                record,
                notes=_scrub_asn_mentions(record.notes, scrub),
                aka=_scrub_asn_mentions(record.aka, scrub),
            )
        nets.append(record)
    meta = dict(pdb.meta)
    return PDBSnapshot.build(orgs.values(), nets, meta=meta)


def _rewind_web(
    universe: Universe, pending_brands: List[Brand]
) -> SimulatedWeb:
    """Clone the web; pending brands' sites serve their own pages again."""
    web = SimulatedWeb()
    rewound_hosts = {
        b.website_host: b for b in pending_brands if b.website_host
    }
    for site in universe.web.sites():
        clone = Site(
            host=site.host,
            title=site.title,
            redirect_kind=site.redirect_kind,
            redirect_target=site.redirect_target,
            favicon=site.favicon,
            alive=site.alive,
        )
        brand = rewound_hosts.get(site.host)
        if brand is not None:
            clone.redirect_kind = RedirectKind.NONE
            clone.redirect_target = ""
            token = brand.name.split()[0].lower() or "brand"
            clone.favicon = make_favicon(f"{token}-pre-acquisition")
            clone.alive = True
        web.add_site(clone)
    return web


# -- study runner -------------------------------------------------------------


@dataclass
class YearResult:
    """Borges's output for one historical year."""

    year: int
    mapping: OrgMapping
    theta: float
    org_count: int


@dataclass
class MergeEvent:
    """Organizations of year t that united into one by year t+1."""

    year_from: int
    year_to: int
    merged_cluster: Cluster
    prior_components: Tuple[Cluster, ...]


@dataclass
class EvolutionReport:
    """The longitudinal study's full output."""

    results: List[YearResult] = field(default_factory=list)
    merges: List[MergeEvent] = field(default_factory=list)

    def theta_series(self) -> Tuple[List[int], List[float]]:
        return (
            [r.year for r in self.results],
            [r.theta for r in self.results],
        )



def detect_merges(
    earlier: OrgMapping, later: OrgMapping, year_from: int, year_to: int
) -> List[MergeEvent]:
    """Clusters of *later* composed of several *earlier* clusters.

    Only ASNs present in both snapshots participate (new allocations are
    not merges).
    """
    events: List[MergeEvent] = []
    for cluster in later.multi_asn_clusters():
        shared = [a for a in cluster if a in earlier]
        if len(shared) < 2:
            continue
        components: Set[Cluster] = set()
        for asn in shared:
            components.add(earlier.cluster_of(asn))
        if len(components) > 1:
            events.append(
                MergeEvent(
                    year_from=year_from,
                    year_to=year_to,
                    merged_cluster=cluster,
                    prior_components=tuple(
                        sorted(components, key=lambda c: (-len(c), min(c)))
                    ),
                )
            )
    events.sort(key=lambda e: (-len(e.merged_cluster), min(e.merged_cluster)))
    return events


def run_longitudinal_study(
    series: SnapshotSeries,
) -> EvolutionReport:
    """Run Borges on every snapshot and diff consecutive mappings."""
    report = EvolutionReport()
    previous: Optional[YearResult] = None
    for snapshot in series.snapshots:
        pipeline = BorgesPipeline(snapshot.whois, snapshot.pdb, snapshot.web)
        mapping = pipeline.run().mapping
        result = YearResult(
            year=snapshot.year,
            mapping=mapping,
            theta=org_factor_from_mapping(mapping),
            org_count=len(mapping),
        )
        get_event_log().emit(
            "evolution.year",
            year=result.year,
            theta=round(result.theta, 4),
            orgs=result.org_count,
        )
        if previous is not None:
            report.merges.extend(
                detect_merges(
                    previous.mapping, mapping, previous.year, result.year
                )
            )
        report.results.append(result)
        previous = result
    return report
