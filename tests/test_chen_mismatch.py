"""Tests for the Chen et al. mismatch-refinement baseline."""


from repro.baselines.chen_mismatch import (
    build_chen_mapping,
    find_mismatch_candidates,
    keyword_match,
    name_keywords,
)
from repro.metrics import org_factor_from_mapping
from repro.metrics.partition import score_partition
from repro.universe.canonical import AS_CENTURYLINK, AS_LUMEN


class TestKeywords:
    def test_distinctive_tokens_extracted(self):
        assert "lumen" in name_keywords("Lumen Technologies LLC")

    def test_stopwords_removed(self):
        assert name_keywords("The Internet Network Company Ltd") == frozenset()

    def test_short_tokens_dropped(self):
        assert "at" not in name_keywords("AT Industries")

    def test_match_on_shared_brand(self):
        assert keyword_match("Claro Chile SA", "Claro Puerto Rico Inc")

    def test_no_match_on_generic_words_only(self):
        assert not keyword_match("Vega Telecom", "Sierra Telecom")


class TestCandidates:
    def test_lumen_mismatch_found_and_accepted(self, universe):
        candidates = find_mismatch_candidates(universe.whois, universe.pdb)
        lumen = [
            c for c in candidates
            if {AS_LUMEN, AS_CENTURYLINK} <= c.cluster
        ]
        assert lumen
        assert lumen[0].accepted  # "Lumen" appears in both org names

    def test_candidates_have_reasons(self, universe):
        for candidate in find_mismatch_candidates(universe.whois, universe.pdb):
            assert candidate.reason
            assert candidate.source == "pdb_only"

    def test_agreeing_sources_not_flagged(self, universe):
        # Candidates exist only where WHOIS splits what PDB groups.
        whois = universe.whois
        for candidate in find_mismatch_candidates(whois, universe.pdb):
            org_ids = {whois.org_id_of(a) for a in candidate.cluster}
            assert len(org_ids) > 1


class TestMapping:
    def test_sits_between_as2org_and_borges(
        self, universe, as2org_mapping, borges_mapping
    ):
        chen = build_chen_mapping(universe.whois, universe.pdb)
        theta_chen = org_factor_from_mapping(chen)
        assert org_factor_from_mapping(as2org_mapping) <= theta_chen
        assert theta_chen <= org_factor_from_mapping(borges_mapping)

    def test_keyword_filter_protects_precision(self, universe):
        chen = build_chen_mapping(universe.whois, universe.pdb)
        scores = score_partition(
            chen.clusters(), universe.ground_truth.true_clusters()
        )
        assert scores.pair_precision > 0.95

    def test_method_label(self, universe):
        chen = build_chen_mapping(universe.whois, universe.pdb)
        assert chen.method == "chen-mismatch"
