"""Cluster consolidation: merging partially overlapping organizations.

§4.1: "we consolidate partially overlapping clusters into a single
organization".  Implemented as a classic union-find over ASNs; any two
clusters sharing an ASN merge transitively, which is exactly the clique
semantics the Organization Factor graph assumes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Set, TypeVar

from ..types import ASN, Cluster

T = TypeVar("T", bound=Hashable)


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def add(self, item: Hashable) -> None:
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets holding *a* and *b*; returns the new root."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        return root_a

    def connected(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def groups(self) -> List[Set[Hashable]]:
        """All disjoint sets, largest first, ties by smallest member
        (members must be mutually orderable, as ASNs are)."""
        by_root: Dict[Hashable, Set[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return sorted(by_root.values(), key=lambda group: (-len(group), min(group)))


def reduce_shard_clusters(
    shard_cluster_lists: Iterable[Iterable[Iterable[ASN]]],
) -> List[Cluster]:
    """The sharded pipeline's final reduce: union per-shard cluster lists.

    Union-find consolidation is associative and commutative, so merging
    each shard's already-consolidated clusters and then merging across
    shards yields exactly the clusters of one global merge — this is the
    algebraic fact that makes sharded execution exact rather than
    approximate.  When the partition is *closed* (no feature edge
    crosses shards — see :mod:`repro.core.partition`), the per-shard
    cluster sets are disjoint and this reduce is a plain concatenation;
    the union-find pass is kept as defense in depth so an imperfect
    partition degrades to correct-but-slower, never to wrong.
    """
    return merge_clusters(shard_cluster_lists)


def merge_clusters(cluster_lists: Iterable[Iterable[Iterable[ASN]]]) -> List[Cluster]:
    """Consolidate clusters from several features into one partition.

    Takes any number of cluster lists (one per feature) and returns the
    transitive closure: clusters sharing at least one ASN become one.
    """
    forest = UnionFind()
    for clusters in cluster_lists:
        for cluster in clusters:
            members = [int(a) for a in cluster]
            if not members:
                continue
            first = members[0]
            forest.add(first)
            for other in members[1:]:
                forest.union(first, other)
    return [frozenset(group) for group in forest.groups()]
