"""AS-level topology with business relationships.

Edges carry the standard two relationship kinds inferred from BGP data:
provider-to-customer (p2c) and peer-to-peer (p2p).  The topology is the
substrate for customer-cone computation, which in turn drives AS-Rank.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ..errors import DataError
from ..types import ASN


class Relationship(enum.Enum):
    """AS business relationship on one edge."""

    P2C = "p2c"  # provider → customer
    P2P = "p2p"  # settlement-free peers


@dataclass(frozen=True)
class ASLink:
    """One inter-AS adjacency; for P2C, ``a`` is the provider."""

    a: ASN
    b: ASN
    relationship: Relationship

    def validate(self) -> "ASLink":
        if self.a == self.b:
            raise DataError(f"self-loop on AS{self.a}")
        return self


class ASTopology:
    """Adjacency-indexed AS graph with relationship-aware queries."""

    def __init__(self) -> None:
        self._asns: Set[ASN] = set()
        self._customers: Dict[ASN, Set[ASN]] = {}
        self._providers: Dict[ASN, Set[ASN]] = {}
        self._peers: Dict[ASN, Set[ASN]] = {}
        self._link_count = 0

    # -- construction --------------------------------------------------------

    def add_asn(self, asn: ASN) -> None:
        self._asns.add(asn)

    def add_p2c(self, provider: ASN, customer: ASN) -> None:
        """Add a provider→customer edge (idempotent)."""
        if provider == customer:
            raise DataError(f"self-loop on AS{provider}")
        self._asns.add(provider)
        self._asns.add(customer)
        customers = self._customers.setdefault(provider, set())
        if customer not in customers:
            customers.add(customer)
            self._providers.setdefault(customer, set()).add(provider)
            self._link_count += 1

    def add_p2p(self, a: ASN, b: ASN) -> None:
        """Add a symmetric peering edge (idempotent)."""
        if a == b:
            raise DataError(f"self-loop on AS{a}")
        self._asns.add(a)
        self._asns.add(b)
        peers_a = self._peers.setdefault(a, set())
        if b not in peers_a:
            peers_a.add(b)
            self._peers.setdefault(b, set()).add(a)
            self._link_count += 1

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    @property
    def link_count(self) -> int:
        return self._link_count

    def asns(self) -> List[ASN]:
        return sorted(self._asns)

    def customers_of(self, asn: ASN) -> Set[ASN]:
        return set(self._customers.get(asn, ()))

    def providers_of(self, asn: ASN) -> Set[ASN]:
        return set(self._providers.get(asn, ()))

    def peers_of(self, asn: ASN) -> Set[ASN]:
        return set(self._peers.get(asn, ()))

    def degree(self, asn: ASN) -> int:
        return (
            len(self._customers.get(asn, ()))
            + len(self._providers.get(asn, ()))
            + len(self._peers.get(asn, ()))
        )

    def is_stub(self, asn: ASN) -> bool:
        """A stub AS has no customers of its own."""
        return not self._customers.get(asn)

    def tier1s(self) -> List[ASN]:
        """ASes with customers but no providers (the clique analogue)."""
        return sorted(
            asn for asn in self._asns
            if self._customers.get(asn) and not self._providers.get(asn)
        )

    def p2c_links(self) -> Iterator[Tuple[ASN, ASN]]:
        for provider in sorted(self._customers):
            for customer in sorted(self._customers[provider]):
                yield provider, customer

    def validate_acyclic(self) -> None:
        """Raise :class:`DataError` if the p2c graph has a cycle.

        Provider loops are invalid economics (an AS cannot transitively
        buy transit from itself); generated topologies must be DAGs.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[ASN, int] = {asn: WHITE for asn in self._asns}
        for root in self._asns:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[ASN, Iterator[ASN]]] = [
                (root, iter(sorted(self._customers.get(root, ()))))
            ]
            color[root] = GRAY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if color[child] == GRAY:
                        raise DataError(
                            f"p2c cycle through AS{node} → AS{child}"
                        )
                    if color[child] == WHITE:
                        color[child] = GRAY
                        stack.append(
                            (child, iter(sorted(self._customers.get(child, ()))))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
