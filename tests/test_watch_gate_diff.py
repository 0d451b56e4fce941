"""Publish-gate and generation-diff semantics.

The diff's unit of change is the organization: merges, splits, moved
ASNs (sibling-set changes) and universe drift.  The gate turns those
deltas plus coverage/precision into a publish/refuse verdict; every
threshold gets one isolated block test here, plus the bootstrap rule
(first generation always passes — nothing to regress from).
"""

from __future__ import annotations

import pytest

from repro.core.mapping import OrgMapping
from repro.errors import ConfigError
from repro.serve.diff import diff_indexes
from repro.serve.index import MappingIndex
from repro.watch import GateThresholds, PublishGate


def index_of(groups):
    universe = sorted(asn for group in groups for asn in group)
    mapping = OrgMapping(
        universe=universe,
        clusters=[frozenset(group) for group in groups],
        method="gate-test",
    )
    return MappingIndex.build(mapping)


#: Thresholds loose enough that only the dimension under test can block.
LOOSE = dict(
    max_org_shrink=100.0,
    max_org_growth=100.0,
    max_coverage_drop=100.0,
    max_churn=100.0,
)


class TestDiffIndexes:
    def test_identical_generations_diff_to_zero(self):
        old = index_of([{1, 2}, {3, 4}])
        diff = diff_indexes(old, index_of([{1, 2}, {3, 4}]))
        assert diff.asns_moved == 0
        assert diff.orgs_merged == 0
        assert diff.orgs_split == 0
        assert diff.asns_added == 0 and diff.asns_removed == 0
        assert diff.churn_fraction == 0.0

    def test_merge_counts_once_and_moves_all_members(self):
        diff = diff_indexes(index_of([{1, 2}, {3, 4}]), index_of([{1, 2, 3, 4}]))
        assert diff.orgs_merged == 1
        assert diff.orgs_split == 0
        assert diff.asns_moved == 4  # every sibling set changed
        assert diff.churn_fraction == 1.0
        assert len(diff.merged_examples) == 1

    def test_split_is_the_mirror_of_merge(self):
        diff = diff_indexes(index_of([{1, 2, 3, 4}]), index_of([{1, 2}, {3, 4}]))
        assert diff.orgs_split == 1
        assert diff.orgs_merged == 0
        assert diff.asns_moved == 4
        assert len(diff.split_examples) == 1

    def test_universe_drift_is_not_churn(self):
        # ASN 5 appears, ASN 3 disappears; the surviving orgs are intact.
        diff = diff_indexes(index_of([{1, 2}, {3}]), index_of([{1, 2}, {5}]))
        assert diff.asns_added == 1
        assert diff.asns_removed == 1
        assert diff.asns_moved == 0
        assert diff.orgs_merged == 0 and diff.orgs_split == 0
        assert diff.common_asns == 2

    def test_disjoint_universes_have_zero_churn_fraction(self):
        diff = diff_indexes(index_of([{1, 2}]), index_of([{8, 9}]))
        assert diff.common_asns == 0
        assert diff.churn_fraction == 0.0

    def test_json_form_is_complete_and_bounded(self):
        diff = diff_indexes(index_of([{1, 2}, {3, 4}]), index_of([{1, 2, 3, 4}]))
        payload = diff.to_json()
        for key in (
            "from_orgs", "to_orgs", "common_asns", "asns_added",
            "asns_removed", "asns_moved", "orgs_merged", "orgs_split",
            "churn_fraction", "merged_examples", "split_examples",
        ):
            assert key in payload


class TestThresholds:
    def test_negative_limits_are_rejected(self):
        with pytest.raises(ConfigError):
            GateThresholds(max_org_shrink=-0.1).validate()
        with pytest.raises(ConfigError):
            GateThresholds(max_churn=-1.0).validate()

    def test_precision_floor_must_be_a_probability(self):
        with pytest.raises(ConfigError):
            GateThresholds(min_precision=1.5).validate()
        with pytest.raises(ConfigError):
            GateThresholds(min_precision=-0.5).validate()

    def test_json_round_trip_of_the_knobs(self):
        thresholds = GateThresholds(max_churn=0.1, min_precision=0.8)
        payload = thresholds.to_json()
        assert payload["max_churn"] == 0.1
        assert payload["min_precision"] == 0.8


class TestPublishGate:
    def test_bootstrap_generation_always_passes(self):
        gate = PublishGate(GateThresholds())
        decision = gate.evaluate(index_of([{1, 2}, {3}]), active=None)
        assert decision.allowed
        assert decision.diff is None
        assert decision.metrics["candidate_orgs"] == 2.0

    def test_bootstrap_still_enforces_the_precision_floor(self):
        gate = PublishGate(GateThresholds(min_precision=0.9, **LOOSE))
        decision = gate.evaluate(
            index_of([{1, 2}]), active=None, precision=0.5
        )
        assert not decision.allowed
        assert any("precision" in r for r in decision.reasons)

    def test_org_shrink_blocks(self):
        gate = PublishGate(GateThresholds(**{**LOOSE, "max_org_shrink": 0.2}))
        active = index_of([{n} for n in range(1, 11)])
        candidate = index_of([{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}])
        decision = gate.evaluate(candidate, active)
        assert not decision.allowed
        assert any("shrank" in r for r in decision.reasons)

    def test_org_growth_blocks(self):
        gate = PublishGate(GateThresholds(**{**LOOSE, "max_org_growth": 0.5}))
        active = index_of([{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}])
        candidate = index_of([{n} for n in range(1, 11)])
        decision = gate.evaluate(candidate, active)
        assert not decision.allowed
        assert any("grew" in r for r in decision.reasons)

    def test_coverage_drop_blocks(self):
        gate = PublishGate(
            GateThresholds(**{**LOOSE, "max_coverage_drop": 0.05})
        )
        active = index_of([{n} for n in range(1, 21)])
        candidate = index_of([{n} for n in range(1, 11)])
        decision = gate.evaluate(candidate, active)
        assert not decision.allowed
        assert any("coverage" in r for r in decision.reasons)

    def test_churn_blocks(self):
        gate = PublishGate(GateThresholds(**{**LOOSE, "max_churn": 0.1}))
        active = index_of([{1, 2}, {3, 4}])
        candidate = index_of([{1, 3}, {2, 4}])  # same universe, reshuffled
        decision = gate.evaluate(candidate, active)
        assert not decision.allowed
        assert any("churn" in r for r in decision.reasons)
        assert decision.metrics["churn_fraction"] == 1.0

    def test_small_drift_passes_with_evidence_attached(self):
        gate = PublishGate(GateThresholds())
        active = index_of([{n} for n in range(1, 11)])
        candidate = index_of([{1, 2}] + [{n} for n in range(3, 12)])
        decision = gate.evaluate(candidate, active, precision=1.0)
        assert decision.allowed
        assert decision.reasons == ()
        assert decision.diff is not None
        assert decision.metrics["precision"] == 1.0
        payload = decision.to_json()
        assert payload["allowed"] is True
        assert "diff" in payload
