"""Last-mile coverage: formatting, stats counters, constant sanity."""


from repro.config import TEST_UNIVERSE, UniverseConfig
from repro.experiments.report import _fmt, render_table


class TestFormatting:
    def test_int_thousands(self):
        assert _fmt(1234567) == "1,234,567"

    def test_whole_float_rendered_as_int(self):
        assert _fmt(42.0) == "42"

    def test_large_float_one_decimal(self):
        assert _fmt(12345.678) == "12,345.7"

    def test_small_float_four_decimals(self):
        assert _fmt(0.34567) == "0.3457"

    def test_bool_not_treated_as_number(self):
        assert _fmt(True) == "True"

    def test_string_passthrough(self):
        assert _fmt("Borges") == "Borges"

    def test_missing_column_renders_empty(self):
        text = render_table([{"a": 1, "b": 2}, {"a": 3}])
        assert text  # no KeyError


class TestTestUniverseConstant:
    def test_is_valid(self):
        TEST_UNIVERSE.validate()

    def test_small_enough_for_fast_tests(self):
        assert TEST_UNIVERSE.n_organizations <= 1000

    def test_differs_from_default_seed(self):
        assert TEST_UNIVERSE.seed != UniverseConfig().seed


class TestPipelineStatsCounters:
    def test_ner_stats_consistent(self, pipeline, borges_result):
        stats = pipeline._ner.stats
        assert stats.records_total >= stats.records_with_text
        assert stats.records_with_text >= stats.records_numeric
        # The input filter queried exactly the numeric records (possibly
        # accumulated across the pipeline run and validation reruns).
        assert stats.records_queried >= stats.records_numeric
        assert stats.asns_extracted >= stats.records_with_siblings

    def test_web_stats_consistent(self, borges_result):
        stats = borges_result.web_result.stats
        assert stats.unique_urls <= stats.nets_with_website
        assert stats.reachable_urls <= stats.unique_urls
        assert stats.unique_final_urls <= stats.reachable_urls + 1
        assert stats.shared_favicon_groups <= stats.unique_favicons
        assert (
            stats.llm_groups_accepted + stats.llm_groups_rejected
            <= stats.shared_favicon_groups
        )

    def test_mapping_cluster_order(self, borges_mapping):
        clusters = borges_mapping.clusters()
        sizes = [len(c) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)
        multi = borges_mapping.multi_asn_clusters()
        assert all(len(c) > 1 for c in multi)
        assert len(multi) < len(clusters)
