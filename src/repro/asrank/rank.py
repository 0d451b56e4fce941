"""AS-Rank: ordering ASes by customer-cone size.

Mirrors CAIDA's AS-Rank semantics at the granularity Fig. 8 needs: rank 1
is the AS with the largest customer cone; ties break by transit degree,
then by ASN for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import UnknownASNError
from ..types import ASN
from .cone import cone_sizes
from .topology import ASTopology


@dataclass(frozen=True)
class RankEntry:
    """One row of the AS-Rank table."""

    rank: int
    asn: ASN
    cone_size: int
    degree: int


class ASRank:
    """An immutable rank table with lookup both ways."""

    def __init__(self, entries: List[RankEntry]) -> None:
        self._entries = list(entries)
        self._by_asn: Dict[ASN, RankEntry] = {e.asn: e for e in entries}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def entry(self, asn: ASN) -> RankEntry:
        try:
            return self._by_asn[asn]
        except KeyError:
            raise UnknownASNError(asn) from None

    def rank_of(self, asn: ASN) -> int:
        return self.entry(asn).rank

    def rank_of_or_none(self, asn: ASN) -> Optional[int]:
        entry = self._by_asn.get(asn)
        return entry.rank if entry else None

    def top(self, n: int) -> List[RankEntry]:
        return self._entries[:n]

    def best_ranked(self, asns) -> Optional[RankEntry]:
        """The best (lowest-rank) entry among *asns*; None if none ranked."""
        best: Optional[RankEntry] = None
        for asn in asns:
            entry = self._by_asn.get(asn)
            if entry and (best is None or entry.rank < best.rank):
                best = entry
        return best


def compute_rank(topology: ASTopology) -> ASRank:
    """Compute the full AS-Rank table for *topology*."""
    sizes = cone_sizes(topology)
    ordered = sorted(
        sizes,
        key=lambda asn: (-sizes[asn], -topology.degree(asn), asn),
    )
    entries = [
        RankEntry(
            rank=i + 1,
            asn=asn,
            cone_size=sizes[asn],
            degree=topology.degree(asn),
        )
        for i, asn in enumerate(ordered)
    ]
    return ASRank(entries)
