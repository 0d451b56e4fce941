"""Property-based tests for union-find, OrgMapping, URL handling, and the
extraction engine's hallucination guard."""

import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.core.mapping import OrgMapping
from repro.core.merge import UnionFind, merge_clusters, reduce_shard_clusters
from repro.errors import URLError
from repro.llm.extraction_engine import extract_siblings, find_all_numbers
from repro.web.url import normalize_url, parse_url, registrable_domain

asn_strategy = st.integers(min_value=1, max_value=60)
cluster_strategy = st.frozensets(asn_strategy, min_size=1, max_size=8)
cluster_list_strategy = st.lists(cluster_strategy, max_size=12)


@given(cluster_list_strategy)
def test_merge_produces_disjoint_partition(clusters):
    merged = merge_clusters([clusters])
    seen = set()
    for cluster in merged:
        assert not (cluster & seen)
        seen |= cluster
    assert seen == set().union(*clusters) if clusters else not seen


@given(cluster_list_strategy)
def test_merge_preserves_togetherness(clusters):
    merged = merge_clusters([clusters])
    index = {}
    for i, cluster in enumerate(merged):
        for asn in cluster:
            index[asn] = i
    for cluster in clusters:
        members = sorted(cluster)
        assert len({index[m] for m in members}) == 1


@given(cluster_list_strategy, cluster_list_strategy)
def test_merge_order_invariant(a, b):
    one = {frozenset(c) for c in merge_clusters([a, b])}
    two = {frozenset(c) for c in merge_clusters([b, a])}
    assert one == two


def _saved_bytes(universe, feature_lists):
    mapping = OrgMapping(
        universe,
        [cluster for clusters in feature_lists for cluster in clusters],
        method="borges[test]",
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mapping.json"
        mapping.save(path)
        return path.read_bytes()


#: Sparser features than ``cluster_list_strategy`` (small clusters over
#: more ASNs), so most examples keep several multi-ASN organizations
#: apart instead of merging into one component.
_sparse_asn = st.integers(min_value=1, max_value=120)
_feature_lists = st.lists(
    st.lists(st.frozensets(_sparse_asn, min_size=1, max_size=5), max_size=10),
    min_size=1,
    max_size=4,
)


@given(
    st.frozensets(_sparse_asn, max_size=20),
    _feature_lists,
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=4),
)
def test_merge_order_invariant_on_saved_bytes(
    undelegated, feature_lists, rng, n_shards
):
    # Merge order must not reach the saved mapping: not the order of the
    # feature lists, of the clusters in each, nor of the members in each
    # cluster (merge_clusters roots each cluster at its first member).
    # Members outside the universe are dropped after the merge.
    universe = set(range(1, 121)) - undelegated
    reference = _saved_bytes(universe, feature_lists)
    shuffled = []
    for clusters in feature_lists:
        permuted = [rng.sample(sorted(c), len(c)) for c in clusters]
        rng.shuffle(permuted)
        shuffled.append(permuted)
    rng.shuffle(shuffled)
    assert _saved_bytes(universe, shuffled) == reference
    # Split across shards: each consolidates its share, the reduce unions.
    flat = [cluster for clusters in shuffled for cluster in clusters]
    shards = [flat[i::n_shards] for i in range(n_shards)]
    reduced = reduce_shard_clusters(merge_clusters([s]) for s in shards)
    assert _saved_bytes(universe, [reduced]) == reference


@given(st.lists(st.tuples(asn_strategy, asn_strategy), max_size=40))
def test_unionfind_equivalence_relation(pairs):
    forest = UnionFind()
    for a, b in pairs:
        forest.union(a, b)
    # Symmetry + transitivity: connectivity matches group membership.
    groups = forest.groups()
    index = {}
    for i, group in enumerate(groups):
        for item in group:
            index[item] = i
    for a, b in pairs:
        assert index[a] == index[b]


@given(
    st.frozensets(asn_strategy, min_size=1, max_size=40),
    cluster_list_strategy,
)
def test_mapping_always_partitions_universe(universe, clusters):
    mapping = OrgMapping(universe=universe, clusters=clusters)
    covered = set()
    for cluster in mapping.clusters():
        assert cluster <= universe
        assert not (cluster & covered)
        covered |= cluster
    assert covered == set(universe)


@given(st.frozensets(asn_strategy, min_size=1, max_size=40), cluster_list_strategy)
def test_mapping_sizes_sum_to_universe(universe, clusters):
    mapping = OrgMapping(universe=universe, clusters=clusters)
    assert sum(mapping.sizes()) == len(universe)


_host_label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)


@given(st.lists(_host_label, min_size=2, max_size=4))
def test_url_normalization_idempotent(labels):
    url = "http://" + ".".join(labels) + "/path"
    normalized = normalize_url(url)
    assert normalize_url(normalized) == normalized


@given(st.lists(_host_label, min_size=2, max_size=4))
def test_registrable_domain_is_suffix_of_host(labels):
    host = ".".join(labels)
    domain = registrable_domain(host)
    assert host.endswith(domain)


@given(st.text(max_size=200))
def test_parse_url_never_hangs_or_crashes_unexpectedly(text):
    try:
        parsed = parse_url(text)
    except URLError:
        return
    assert parsed.host
    assert parsed.scheme in ("http", "https")


@given(st.text(max_size=300), st.integers(min_value=1, max_value=2**31))
def test_extraction_never_invents_numbers(text, own_asn):
    """The core anti-hallucination invariant: every extracted sibling is a
    number literally present in the text and never the record's own ASN."""
    result = extract_siblings(own_asn, text, "")
    literal = set(find_all_numbers(text))
    for asn in result.asns:
        assert asn in literal
        assert asn != own_asn


@given(st.text(max_size=300))
def test_find_all_numbers_matches_digit_runs(text):
    numbers = find_all_numbers(text)
    assert all(isinstance(n, int) and n >= 0 for n in numbers)
    # ASCII digits must always be found (str.isdigit also accepts
    # superscripts etc., which the ASN regexes rightly ignore).
    if any(ch in "0123456789" for ch in text):
        assert numbers
