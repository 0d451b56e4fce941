"""Unit tests for union-find consolidation and the OrgMapping container."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.mapping import OrgMapping
from repro.core.merge import UnionFind, merge_clusters
from repro.errors import UnknownASNError


class TestUnionFind:
    def test_singletons(self):
        forest = UnionFind()
        forest.add(1)
        forest.add(2)
        assert not forest.connected(1, 2)
        assert len(forest.groups()) == 2

    def test_union_connects(self):
        forest = UnionFind()
        forest.union(1, 2)
        forest.union(2, 3)
        assert forest.connected(1, 3)

    def test_union_idempotent(self):
        forest = UnionFind()
        forest.union(1, 2)
        forest.union(1, 2)
        assert len(forest.groups()) == 1

    def test_connected_unknown_items(self):
        assert not UnionFind().connected(1, 2)

    def test_groups_sorted_largest_first(self):
        forest = UnionFind()
        forest.union(1, 2)
        forest.union(2, 3)
        forest.add(9)
        groups = forest.groups()
        assert groups[0] == {1, 2, 3}
        assert groups[1] == {9}

    def test_find_path_compression_consistency(self):
        forest = UnionFind()
        for i in range(100):
            forest.union(i, i + 1)
        root = forest.find(0)
        assert all(forest.find(i) == root for i in range(101))


class TestMergeClusters:
    def test_disjoint_stay_disjoint(self):
        merged = merge_clusters([[{1, 2}, {3, 4}]])
        assert sorted(map(sorted, merged)) == [[1, 2], [3, 4]]

    def test_overlap_merges(self):
        merged = merge_clusters([[{1, 2}], [{2, 3}]])
        assert merged == [frozenset({1, 2, 3})]

    def test_transitive_closure_across_features(self):
        merged = merge_clusters([[{1, 2}], [{2, 3}], [{3, 4}]])
        assert merged == [frozenset({1, 2, 3, 4})]

    def test_empty_clusters_ignored(self):
        assert merge_clusters([[set(), {5}]]) == [frozenset({5})]

    def test_no_input(self):
        assert merge_clusters([]) == []


class TestOrgMapping:
    def make(self):
        return OrgMapping(
            universe=[1, 2, 3, 4, 5, 6],
            clusters=[{1, 2}, {2, 3}, {5, 99}],  # 99 outside the universe
            method="test",
            org_names={1: "Group A", 5: "Solo"},
        )

    def test_merges_overlapping_clusters(self):
        mapping = self.make()
        assert mapping.cluster_of(1) == frozenset({1, 2, 3})

    def test_outside_universe_dropped(self):
        mapping = self.make()
        assert 99 not in mapping
        assert mapping.cluster_of(5) == frozenset({5})

    def test_uncovered_asns_become_singletons(self):
        mapping = self.make()
        assert mapping.cluster_of(4) == frozenset({4})
        assert mapping.cluster_of(6) == frozenset({6})

    def test_org_count(self):
        assert len(self.make()) == 4  # {1,2,3}, {4}, {5}, {6}

    def test_sizes_descending(self):
        assert self.make().sizes() == [3, 1, 1, 1]

    def test_are_siblings(self):
        mapping = self.make()
        assert mapping.are_siblings(1, 3)
        assert not mapping.are_siblings(1, 4)
        assert not mapping.are_siblings(1, 999)

    def test_cluster_of_unknown_raises(self):
        with pytest.raises(UnknownASNError):
            self.make().cluster_of(999)

    def test_org_name_lookup(self):
        mapping = self.make()
        assert mapping.org_name_of(3) == "Group A"  # via member 1
        assert mapping.org_name_of(4) == "AS4"  # no name recorded

    def test_multi_asn_clusters(self):
        assert self.make().multi_asn_clusters() == [frozenset({1, 2, 3})]

    def test_stats(self):
        stats = self.make().stats()
        assert stats["asns"] == 6
        assert stats["orgs"] == 4
        assert stats["multi_asn_orgs"] == 1
        assert stats["max_asns_per_org"] == 3

    def test_changed_clusters_vs(self):
        baseline = OrgMapping(universe=[1, 2, 3, 4, 5, 6], clusters=[{1, 2}])
        changed = self.make().changed_clusters_vs(baseline)
        assert frozenset({1, 2, 3}) in changed
        assert frozenset({4}) not in changed  # identical singleton

    def test_json_round_trip(self, tmp_path):
        mapping = self.make()
        path = tmp_path / "mapping.json"
        mapping.save(path)
        loaded = OrgMapping.load(path)
        assert loaded.clusters() == mapping.clusters()
        assert loaded.method == "test"
        assert loaded.org_name_of(1) == "Group A"

    def test_universe_size(self):
        assert self.make().universe_size == 6

    def test_org_order_indices_and_singleton_names(self):
        mapping = self.make()
        assert mapping.clusters() == [
            frozenset({1, 2, 3}), frozenset({4}), frozenset({5}), frozenset({6}),
        ]
        assert [mapping.org_index_of(a) for a in range(1, 7)] == [0, 0, 0, 1, 2, 3]
        assert mapping.org_name_of(5) == "Solo"
        assert mapping.to_json()["universe"] == [1, 2, 3, 4, 5, 6]


def union_find_json(universe, clusters, method, org_names):
    """``to_json()`` of the mapping built by union-find over *every*
    cluster, singletons included: the construction the multi-ASN merge
    replaced, kept here as its oracle."""
    universe_set = {int(a) for a in universe}
    multi = []
    for cluster in merge_clusters([clusters]):
        kept = frozenset(a for a in cluster if a in universe_set)
        if len(kept) > 1:
            multi.append(kept)
    multi.sort(key=lambda c: (-len(c), min(c)))
    return {
        "method": method,
        "universe": sorted(universe_set),
        "clusters": [sorted(c) for c in multi],
        "org_names": {str(k): v for k, v in org_names.items()},
    }


# Small ASNs so clusters overlap often; the universe covers only part of
# them, so some members fall outside it.
_asn = st.integers(min_value=1, max_value=30)
# Lists allow repeated members ([7, 7] names one ASN twice).
_cluster = st.one_of(
    st.lists(_asn, max_size=6),
    st.frozensets(_asn, max_size=6),
    st.builds(lambda a: [a], _asn),
)


@given(
    universe=st.frozensets(_asn, max_size=20),
    clusters=st.lists(_cluster, max_size=12),
    names=st.dictionaries(_asn, st.text(max_size=3), max_size=4),
)
def test_multi_asn_merge_keeps_the_partition(universe, clusters, names):
    mapping = OrgMapping(
        universe=universe, clusters=clusters, method="m", org_names=names
    )
    assert mapping.to_json() == union_find_json(universe, clusters, "m", names)
