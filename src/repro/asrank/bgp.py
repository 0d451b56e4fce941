"""BGP route propagation over the AS topology (valley-free simulation).

The paper's opening frames AS-level research as built on "heuristics to
infer these connections from public BGP data sources such as RouteViews
and RIPE RIS".  This module is that substrate's data source: it simulates
Gao-Rexford route propagation over the synthetic topology and emits the
AS paths a route collector would record, so relationship-inference
heuristics (see :mod:`repro.asrank.relationship_inference`) can be run
and validated against the known ground-truth edges.

Export policy (the valley-free rules):

* routes learned from a **customer** are exported to everyone;
* routes learned from a **peer** or **provider** are exported only to
  customers.

Equivalently, every propagated path is customer→provider hops (uphill),
at most one peer hop, then provider→customer hops (downhill).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.log import get_event_log
from ..types import ASN
from .topology import ASTopology

#: How a route was learned, ordered by export preference.
_FROM_CUSTOMER = 0
_FROM_PEER = 1
_FROM_PROVIDER = 2


@dataclass(frozen=True)
class RouteAnnouncement:
    """One path a collector recorded: collector-side first, origin last."""

    path: Tuple[ASN, ...]

    @property
    def origin(self) -> ASN:
        return self.path[-1]

    @property
    def collector_peer(self) -> ASN:
        return self.path[0]


def propagate_routes(
    topology: ASTopology,
    origin: ASN,
    max_paths: Optional[int] = None,
) -> Dict[ASN, Tuple[Tuple[ASN, ...], int]]:
    """Best valley-free path from every AS toward *origin*.

    Returns ``{asn: (path, learned_from)}`` where ``path`` starts at
    ``asn`` and ends at ``origin``.  Route selection prefers
    customer-learned > peer-learned > provider-learned, then shorter
    paths, then lower next-hop ASN (a deterministic tiebreak standing in
    for real BGP's decision process).
    """
    # Dijkstra-like exploration with the (relation, length) preference.
    best: Dict[ASN, Tuple[int, int, Tuple[ASN, ...]]] = {
        origin: (_FROM_CUSTOMER, 0, (origin,))
    }
    heap: List[Tuple[int, int, Sequence[ASN]]] = [(_FROM_CUSTOMER, 0, (origin,))]
    while heap:
        relation, length, path = heapq.heappop(heap)
        node = path[0]
        current = best.get(node)
        if current is None or (relation, length) > current[:2]:
            continue
        # Who does `node` export this route to, per valley-free rules?
        exports: List[Tuple[ASN, int]] = []
        # Providers and peers receive only customer-learned routes.
        if relation == _FROM_CUSTOMER:
            exports.extend(
                (provider, _FROM_CUSTOMER)
                for provider in topology.providers_of(node)
            )
            exports.extend(
                (peer, _FROM_PEER) for peer in topology.peers_of(node)
            )
        # Customers always receive the route (they learn it from their
        # provider).
        exports.extend(
            (customer, _FROM_PROVIDER)
            for customer in topology.customers_of(node)
        )
        for neighbour, learned in exports:
            if neighbour in path:
                continue  # loop prevention (AS_PATH check)
            candidate = (learned, length + 1, (neighbour,) + tuple(path))
            existing = best.get(neighbour)
            if existing is None or candidate[:2] < existing[:2]:
                best[neighbour] = candidate
                heapq.heappush(heap, candidate)
    return {
        asn: (path, relation)
        for asn, (relation, _length, path) in best.items()
        if asn != origin
    }


def collect_paths(
    topology: ASTopology,
    collectors: Sequence[ASN],
    origins: Optional[Iterable[ASN]] = None,
) -> List[RouteAnnouncement]:
    """The RouteViews-style dump: per origin, the path each collector sees.

    ``collectors`` are the ASes hosting collector sessions (real
    collectors peer with many ASes; here the collector sits inside the
    AS).  One announcement per (collector, origin) pair that has a route.
    """
    origins = list(origins) if origins is not None else topology.asns()
    announcements: List[RouteAnnouncement] = []
    for origin in origins:
        table = propagate_routes(topology, origin)
        for collector in collectors:
            entry = table.get(collector)
            if entry is None:
                continue
            path, _relation = entry
            announcements.append(RouteAnnouncement(path=tuple(path)))
    get_event_log().emit(
        "bgp.collected",
        severity="debug",
        announcements=len(announcements),
        collectors=len(collectors),
    )
    return announcements


def is_valley_free(
    topology: ASTopology, path: Sequence[ASN]
) -> bool:
    """Check a path against the Gao-Rexford pattern (ground-truth edges).

    Reading the path from the collector side to the origin, the reverse
    direction (origin → collector) must be uphill (c2p) hops, at most one
    peer hop, then downhill (p2c) hops.
    """
    # Walk origin → collector.
    hops = list(reversed(path))
    phase = "up"
    for a, b in zip(hops, hops[1:]):
        if b in topology.providers_of(a):
            kind = "up"
        elif b in topology.peers_of(a):
            kind = "peer"
        elif b in topology.customers_of(a):
            kind = "down"
        else:
            return False  # not an edge at all
        if phase == "up":
            phase = kind
        elif phase == "peer":
            if kind != "down":
                return False
            phase = "down"
        elif phase == "down" and kind != "down":
            return False
    return True
