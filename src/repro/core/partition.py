"""Dataset partitioning for sharded pipeline runs.

Sharding the stage DAG is only sound if no feature can ever emit a
cluster that spans two shards.  :func:`partition_universe` therefore
computes a *conservative closure* over every evidence channel the
pipeline (§3–§4) can use to link two ASNs:

1. **WHOIS org membership** — ASNs delegated to the same WHOIS org
   (the ``oid_w`` feature);
2. **PeeringDB org membership** — nets under one PDB org (``oid_p``);
3. **shared raw website URL** — two nets listing the same URL always
   resolve to the same final URL (the scrape stage);
4. **redirect reachability** — every host on a net's redirect chain,
   walked statically through the simulated web regardless of liveness,
   so any two ASNs that *could* share a final URL co-shard (``rr``);
5. **shared favicon digest** — hosts on those chains serving identical
   favicon bytes, the raw material of the §4.3.3 favicon decision tree
   (including framework-default and platform icons, whose LLM verdicts
   depend on the full group's URL set);
6. **numbers in free text** — any syntactic ASN appearing in a net's
   notes/aka, the superset of everything the §4.2 extraction (and its
   injected error modes) can promote to a sibling.  Numbers *outside*
   the universe matter too: the merge stage unions raw extraction
   clusters before :class:`~repro.core.mapping.OrgMapping` drops
   non-universe members, so a bogus number shared by two nets' notes
   transitively bridges their clusters — every pair of nets naming the
   same number must co-shard, whether or not that number is an ASN.

Each channel can only *over*-connect relative to the real features
(blocklists, dead hosts, and output filters all shrink the closure), so
over-connection costs shard balance, never correctness: the union of
per-shard feature clusters is exactly the single-shot cluster set, and
the reduced mapping is byte-identical (asserted by the property tests
and the CI ``scale-smoke`` job).

Components are packed into N shards greedy-largest-first, which is
deterministic and keeps shards balanced to within the largest component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..llm.extraction_engine import find_all_numbers
from ..types import ASN
from ..web.url import parse_url
from .merge import UnionFind


@dataclass(frozen=True)
class Shard:
    """One shard: a closed set of ASNs no feature edge leaves."""

    index: int
    asns: Tuple[ASN, ...]
    #: How many connected components were packed into this shard.
    components: int

    def __len__(self) -> int:
        return len(self.asns)


@dataclass(frozen=True)
class PartitionPlan:
    """The result of partitioning one dataset into balanced shards."""

    shards: Tuple[Shard, ...]
    requested_shards: int
    n_components: int
    largest_component: int

    @property
    def n_asns(self) -> int:
        return sum(len(s) for s in self.shards)

    def summary(self) -> Dict[str, int]:
        sizes = [len(s) for s in self.shards]
        return {
            "shards": len(self.shards),
            "requested_shards": self.requested_shards,
            "asns": self.n_asns,
            "components": self.n_components,
            "largest_component": self.largest_component,
            "largest_shard": max(sizes) if sizes else 0,
            "smallest_shard": min(sizes) if sizes else 0,
        }


def _host_of(url: str) -> str:
    try:
        return parse_url(url).host
    except Exception:  # noqa: BLE001 - malformed URLs link nothing
        return ""


def _chain_hosts(web, host: str) -> List[str]:
    """Every host reachable from *host* by following redirects.

    Walked statically (dead sites included): a conservative superset of
    what the scraper can observe under any liveness/chaos condition.
    """
    hosts: List[str] = []
    seen: Set[str] = set()
    while host and host not in seen:
        seen.add(host)
        hosts.append(host)
        site = web.site_for("http://" + host) if web is not None else None
        if site is None or not site.redirect_target:
            break
        host = _host_of(site.redirect_target)
    return hosts


def connected_components(whois, pdb, web) -> List[List[ASN]]:
    """The closure's connected components, largest first (ties: min ASN)."""
    forest = UnionFind()
    for asn in whois.asns():
        forest.add(int(asn))

    # 1. WHOIS org membership.
    for members in whois.members().values():
        first = int(members[0])
        for other in members[1:]:
            forest.union(first, int(other))

    universe: Set[int] = {int(a) for a in whois.asns()}
    if pdb is not None:
        for asn in pdb.nets:
            forest.add(int(asn))
            universe.add(int(asn))

        # 2. PDB org membership.
        for members in pdb.org_members().values():
            first = int(members[0])
            for other in members[1:]:
                forest.union(first, int(other))

        by_raw_url: Dict[str, int] = {}
        by_host: Dict[str, int] = {}
        by_favicon: Dict[str, int] = {}
        by_number: Dict[int, int] = {}
        for net in pdb.networks():
            asn = int(net.asn)
            # 3. Shared raw website URL.
            if net.has_website:
                raw = net.website.strip()
                anchor = by_raw_url.setdefault(raw, asn)
                if anchor != asn:
                    forest.union(anchor, asn)
                # 4./5. Redirect-chain hosts and their favicon digests.
                for host in _chain_hosts(web, _host_of(raw)):
                    anchor = by_host.setdefault(host, asn)
                    if anchor != asn:
                        forest.union(anchor, asn)
                    site = (
                        web.site_for("http://" + host)
                        if web is not None
                        else None
                    )
                    if site is not None and site.favicon:
                        digest = site.favicon_id
                        anchor = by_favicon.setdefault(digest, asn)
                        if anchor != asn:
                            forest.union(anchor, asn)
            # 6. Numbers named in free text.  Out-of-universe numbers
            # still bridge: merge unions raw extraction clusters before
            # OrgMapping drops non-universe members, so two nets naming
            # the same bogus number end up transitively merged.
            if net.freeform_text:
                for number in find_all_numbers(net.freeform_text):
                    if number == asn:
                        continue
                    if number in universe:
                        forest.union(asn, number)
                    anchor = by_number.setdefault(number, asn)
                    if anchor != asn:
                        forest.union(anchor, asn)

    by_root: Dict[object, List[int]] = {}
    for asn in universe:
        by_root.setdefault(forest.find(asn), []).append(asn)
    components = [sorted(members) for members in by_root.values()]
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def partition_universe(
    whois, pdb, web, n_shards: int
) -> PartitionPlan:
    """Split the dataset into at most *n_shards* balanced, closed shards.

    Greedy largest-first bin packing over the closure's components:
    deterministic (components are ordered by size then min ASN; ties
    between bins go to the lowest index), balanced to within the largest
    component.  Fewer non-empty shards than requested are returned when
    there are fewer components than bins.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    components = connected_components(whois, pdb, web)
    bins: List[List[List[int]]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for component in components:
        target = min(range(n_shards), key=lambda i: (loads[i], i))
        bins[target].append(component)
        loads[target] += len(component)
    shards: List[Shard] = []
    for groups in bins:
        if not groups:
            continue
        members = sorted(asn for group in groups for asn in group)
        shards.append(
            Shard(
                index=len(shards),
                asns=tuple(members),
                components=len(groups),
            )
        )
    plan = PartitionPlan(
        shards=tuple(shards),
        requested_shards=n_shards,
        n_components=len(components),
        largest_component=len(components[0]) if components else 0,
    )
    return plan


def validate_partition(plan: PartitionPlan, asns: Iterable[ASN]) -> None:
    """Assert *plan* covers *asns* exactly once (defense in depth)."""
    seen: Set[int] = set()
    for shard in plan.shards:
        for asn in shard.asns:
            if asn in seen:
                raise ValueError(f"AS{asn} appears in two shards")
            seen.add(asn)
    missing = {int(a) for a in asns} - seen
    if missing:
        raise ValueError(
            f"{len(missing)} ASNs missing from partition "
            f"(e.g. {sorted(missing)[:5]})"
        )
