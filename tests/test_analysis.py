"""Unit/integration tests for the analysis modules (Tables 3–9, Figs 7–9)."""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    feature_contribution_table,
    footprint_growth,
    footprint_summary,
    hypergiant_sizes,
    population_change_summary,
    theta_curves,
    top_population_growth,
    transit_marginal_growth,
    validate_classifier,
    validate_extraction,
)
from repro.analysis.access import changed_orgs
from repro.analysis.transit import TransitGrowthSeries, _fit_slope
from repro.analysis.validation import score_extraction_record
from repro.core.ner import NERRecordResult
from repro.web.favicon import FaviconAPI


class TestFeatureTable:
    def test_rows_for_all_features(self, borges_result):
        rows = feature_contribution_table(borges_result)
        sources = [row["source"] for row in rows]
        assert sources == ["OID_P", "OID_W", "notes and aka", "R&R", "Favicons"]

    def test_counts_positive(self, borges_result):
        for row in feature_contribution_table(borges_result):
            assert row["asns"] > 0
            assert row["orgs"] > 0

    def test_oid_w_covers_whole_universe(self, borges_result, universe):
        rows = feature_contribution_table(borges_result)
        oid_w = next(r for r in rows if r["source"] == "OID_W")
        assert oid_w["asns"] == len(universe.whois)

    def test_orgs_never_exceed_asns(self, borges_result):
        for row in feature_contribution_table(borges_result):
            assert row["orgs"] <= row["asns"]


class TestExtractionScoring:
    def make_result(self, asn, siblings):
        return NERRecordResult(
            asn=asn, raw_extracted=tuple(siblings),
            siblings=tuple(siblings), filtered_out=(),
        )

    def test_tp(self):
        assert score_extraction_record(self.make_result(1, [2, 3]), [2, 3]) == "tp"

    def test_tn(self):
        assert score_extraction_record(self.make_result(1, []), []) == "tn"

    def test_fn_missed_sibling(self):
        assert score_extraction_record(self.make_result(1, [2]), [2, 3]) == "fn"

    def test_fp_extra_number(self):
        assert score_extraction_record(self.make_result(1, [2, 99]), [2]) == "fp"

    def test_fp_takes_priority_over_fn(self):
        assert score_extraction_record(self.make_result(1, [99]), [2]) == "fp"


class TestValidation:
    def test_extraction_validation(self, pipeline, universe):
        validation = validate_extraction(
            pipeline._ner, universe.pdb, universe.annotations, sample_size=100
        )
        counts = validation.counts
        assert counts.total == validation.sample_size
        assert counts.accuracy > 0.85
        assert len(validation.errors) == counts.fp + counts.fn

    def test_classifier_validation(self, borges_result, universe):
        validation = validate_classifier(
            borges_result.web_result,
            FaviconAPI(universe.web),
            universe.annotations,
        )
        assert validation.groups_reviewed > 0
        assert validation.overall.accuracy > 0.9
        # Step 2 only sees step-1 false negatives.
        assert validation.step2.total <= validation.step1.fn + validation.step1.tn


class TestAccessAnalysis:
    def test_changed_orgs_have_components(self, borges_mapping, as2org_mapping, universe):
        changed = changed_orgs(borges_mapping, as2org_mapping, universe.apnic)
        assert changed
        for org in changed:
            assert org.users_borges >= org.users_largest_prior
            assert org.marginal_growth == (
                org.users_borges - org.users_largest_prior
            )

    def test_summary_counts_partition(self, borges_mapping, as2org_mapping, universe):
        summary = population_change_summary(
            borges_mapping, as2org_mapping, universe.apnic
        )
        assert summary.changed_count + summary.unchanged_count == len(
            borges_mapping
        )
        assert 0 < summary.marginal_growth_pct_of_internet < 100

    def test_top_growth_sorted(self, borges_mapping, as2org_mapping, universe):
        rows = top_population_growth(
            borges_mapping, as2org_mapping, universe.apnic, top_n=10
        )
        diffs = [row["difference"] for row in rows]
        assert diffs == sorted(diffs, reverse=True)
        assert len(rows) <= 10

    def test_growth_consistent_in_rows(self, borges_mapping, as2org_mapping, universe):
        for row in top_population_growth(
            borges_mapping, as2org_mapping, universe.apnic
        ):
            assert row["difference"] == row["borges_users"] - row["as2org_users"]


class TestTransitAnalysis:
    def test_series_shape(self, borges_mapping, as2org_mapping, universe):
        series = transit_marginal_growth(
            borges_mapping, as2org_mapping, universe.asrank
        )
        assert len(series.ranks) == len(series.marginal_growth)
        assert len(series.cumulative_growth) == len(series.ranks)
        # Cumulative series is monotone non-decreasing.
        assert all(
            b >= a for a, b in zip(series.cumulative_growth, series.cumulative_growth[1:])
        )

    def test_one_entry_per_org(self, borges_mapping, as2org_mapping, universe):
        series = transit_marginal_growth(
            borges_mapping, as2org_mapping, universe.asrank
        )
        assert len(series.ranks) == len(borges_mapping)

    def test_top_ranks_gain_more(self, borges_mapping, as2org_mapping, universe):
        series = transit_marginal_growth(
            borges_mapping, as2org_mapping, universe.asrank
        )
        n = len(universe.whois)
        assert series.mean_growth_top(100) >= series.mean_growth_top(n)

    def test_slopes_computed(self, borges_mapping, as2org_mapping, universe):
        series = transit_marginal_growth(
            borges_mapping, as2org_mapping, universe.asrank
        )
        assert set(series.slopes) == {100, 1_000, 10_000}
        for window, slope in series.slopes.items():
            assert slope == _exact_slope(series, window)


def _exact_slope(series, window):
    """The least-squares slope in exact rational arithmetic, from the
    centred form Σ(x−x̄)(y−ȳ) / Σ(x−x̄)², rounded once at the end."""
    xs = [Fraction(r) for r in series.ranks if r <= window]
    if len(xs) < 2:
        return 0.0
    ys = [Fraction(y) for y in series.cumulative_growth[: len(xs)]]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return float(covariance / sum((x - mean_x) ** 2 for x in xs))


@given(
    rank_gaps=st.lists(st.integers(1, 5000), max_size=60),
    growth=st.lists(st.integers(0, 10**6), max_size=60),
    window=st.integers(1, 10**5),
)
def test_fit_slope_is_the_exact_least_squares_slope(rank_gaps, growth, window):
    """``_fit_slope`` equals the exact slope correctly rounded, for
    distinct ascending ranks and non-decreasing cumulative growth."""
    n = min(len(rank_gaps), len(growth))
    series = TransitGrowthSeries(
        ranks=list(accumulate(rank_gaps[:n])),
        marginal_growth=growth[:n],
        cumulative_growth=list(accumulate(growth[:n])),
    )
    assert _fit_slope(series, window) == _exact_slope(series, window)


class TestHypergiantAnalysis:
    def test_rows_sorted_by_gain(self, as2org_mapping, as2orgplus_mapping, borges_mapping):
        rows = hypergiant_sizes(as2org_mapping, as2orgplus_mapping, borges_mapping)
        gains = [row["gain_vs_as2org"] for row in rows]
        assert gains == sorted(gains, reverse=True)

    def test_borges_never_smaller(self, as2org_mapping, as2orgplus_mapping, borges_mapping):
        for row in hypergiant_sizes(
            as2org_mapping, as2orgplus_mapping, borges_mapping
        ):
            assert row["borges"] >= row["as2org"]
            assert row["borges"] >= row["as2org_plus"]

    def test_all_sixteen_rows(self, as2org_mapping, as2orgplus_mapping, borges_mapping):
        rows = hypergiant_sizes(as2org_mapping, as2orgplus_mapping, borges_mapping)
        assert len(rows) == 16


class TestFootprintAnalysis:
    def test_rows_sorted(self, borges_mapping, as2org_mapping, universe):
        rows = footprint_growth(borges_mapping, as2org_mapping, universe.apnic)
        diffs = [row["difference"] for row in rows]
        assert diffs == sorted(diffs, reverse=True)

    def test_digicel_leads(self, borges_mapping, as2org_mapping, universe):
        rows = footprint_growth(borges_mapping, as2org_mapping, universe.apnic)
        assert rows
        assert "Digicel" in str(rows[0]["company"])

    def test_summary_consistent(self, borges_mapping, as2org_mapping, universe):
        summary = footprint_summary(borges_mapping, as2org_mapping, universe.apnic)
        assert summary.expanded_count >= 1
        assert summary.mean_marginal_countries >= 1.0


class TestThetaCurves:
    def test_two_series(self, universe, as2org_mapping):
        curves = theta_curves(universe.whois, as2org_mapping)
        assert set(curves) == {"singletons", "as2org"}

    def test_as2org_curve_dominates_diagonal(self, universe, as2org_mapping):
        curves = theta_curves(universe.whois, as2org_mapping)
        xs, singles = curves["singletons"]
        _, cumulative = curves["as2org"]
        assert all(c >= s for c, s in zip(cumulative, singles))
        assert cumulative[-1] == singles[-1]  # both end at n
