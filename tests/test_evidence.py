"""Tests for evidence collection and the mapping explainer."""

import pytest

from repro.core.evidence import MappingExplainer, collect_evidence
from repro.universe.canonical import (
    AS_CENTURYLINK,
    AS_CLEARWIRE,
    AS_COGENT,
    AS_DEUTSCHE_TELEKOM,
    AS_EDGECAST,
    AS_LIMELIGHT,
    AS_LUMEN,
    AS_MAXIHOST,
    AS_SLOVAK_TELEKOM,
    AS_TMOBILE_US,
)


@pytest.fixture(scope="module")
def explainer(borges_result, universe):
    evidence = collect_evidence(borges_result, universe.whois, universe.pdb)
    return MappingExplainer(evidence)


class TestEvidenceCollection:
    def test_all_features_produce_evidence(self, explainer):
        stats = explainer.stats()
        for feature in ("oid_w", "oid_p", "notes_aka", "rr", "favicons"):
            assert stats.get(feature, 0) > 0, stats

    def test_evidence_covers_multi_asn_assertions_only(self, explainer):
        for item in explainer._evidence:
            assert len(item.asns) >= 2

    def test_describe_readable(self, explainer):
        text = explainer._evidence[0].describe()
        assert text.startswith("[")
        assert "AS" in text


class TestExplainer:
    def test_lumen_centurylink_explained_by_oid_p(self, explainer):
        chain = explainer.why_siblings(AS_LUMEN, AS_CENTURYLINK)
        assert chain is not None
        assert any(e.feature == "oid_p" for e in chain)

    def test_dtag_subsidiary_explained_by_notes(self, explainer):
        chain = explainer.why_siblings(AS_DEUTSCHE_TELEKOM, AS_SLOVAK_TELEKOM)
        assert chain is not None
        features = {e.feature for e in chain}
        assert "notes_aka" in features or "favicons" in features

    def test_edgio_explained_by_rr(self, explainer):
        chain = explainer.why_siblings(AS_EDGECAST, AS_LIMELIGHT)
        assert chain is not None
        assert any(e.feature == "rr" for e in chain)
        assert any("edg.io" in e.detail for e in chain if e.feature == "rr")

    def test_clearwire_chain_is_multi_hop_or_direct(self, explainer):
        chain = explainer.why_siblings(AS_CLEARWIRE, AS_TMOBILE_US)
        assert chain is not None
        assert 1 <= len(chain) <= 4

    def test_unrelated_asns_have_no_chain(self, explainer):
        assert explainer.why_siblings(AS_MAXIHOST, AS_COGENT) is None

    def test_self_query_is_empty_chain(self, explainer):
        assert explainer.why_siblings(AS_LUMEN, AS_LUMEN) == []

    def test_unknown_asn_returns_none(self, explainer):
        assert explainer.why_siblings(AS_LUMEN, 999_999_999) is None

    def test_chain_is_connected(self, explainer, borges_mapping):
        """Every returned chain must actually connect its endpoints."""
        chain = explainer.why_siblings(AS_CLEARWIRE, AS_TMOBILE_US)
        assert chain
        reachable = {AS_CLEARWIRE}
        for item in chain:
            assert reachable & set(item.asns)
            reachable |= item.asns
        assert AS_TMOBILE_US in reachable

    def test_explainer_consistent_with_mapping(self, explainer, borges_mapping):
        """Evidence connectivity implies mapping siblinghood."""
        sample = sorted(borges_mapping.multi_asn_clusters(), key=min)[:20]
        for cluster in sample:
            members = sorted(cluster)
            chain = explainer.why_siblings(members[0], members[-1])
            if chain is not None:
                assert borges_mapping.are_siblings(members[0], members[-1])

    def test_evidence_for_lists_assertions(self, explainer):
        items = explainer.evidence_for(AS_EDGECAST)
        assert items
        assert all(AS_EDGECAST in e.asns for e in items)


class TestConfidence:
    def test_lumen_pair_corroborated(self, explainer):
        from repro.universe.canonical import AS_LUMEN, AS_GLOBAL_CROSSING

        # Lumen's own ASNs share WHOIS org, PDB org, notes and final URL.
        grade = explainer.confidence(AS_LUMEN, AS_GLOBAL_CROSSING)
        assert grade == "corroborated"

    def test_unrelated_pair_unsupported(self, explainer):
        assert explainer.confidence(AS_MAXIHOST, AS_COGENT) == "unsupported"

    def test_direct_support_lists_features(self, explainer):
        from repro.universe.canonical import AS_LUMEN, AS_GLOBAL_CROSSING

        support = explainer.direct_support(AS_LUMEN, AS_GLOBAL_CROSSING)
        features = {item.feature for item in support}
        assert "oid_w" in features
        assert len(features) >= 2

    def test_clearwire_grade_known(self, explainer):
        # Clearwire links to T-Mobile US through one feature (R&R).
        grade = explainer.confidence(AS_CLEARWIRE, AS_TMOBILE_US)
        assert grade in ("single-source", "corroborated", "transitive")
        assert grade != "unsupported"

    def test_confidence_vocabulary(self, explainer, borges_mapping):
        sample = sorted(borges_mapping.multi_asn_clusters(), key=min)[:15]
        for cluster in sample:
            members = sorted(cluster)
            grade = explainer.confidence(members[0], members[-1])
            assert grade in (
                "corroborated", "single-source", "transitive", "unsupported"
            )
