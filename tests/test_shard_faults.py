"""Fault-tolerant sharded execution: retry, watchdog, salvage, resume.

The contract under test is *graceful degradation with exact recovery*:

* a shard attempt that raises, crashes its forked child, or outlives the
  deadline is retried; one that exhausts its budget is quarantined and
  the run completes ``degraded`` over the survivors;
* the salvaged mapping equals the unsharded mapping restricted to the
  surviving shards' ASNs — no invented knowledge about dead shards;
* with a checkpoint, ``resume=True`` re-runs only the missing shards and
  converges to a mapping byte-identical to the uninterrupted run (a leg
  of the equivalence matrix in ``tests/test_equivalence.py``, like
  ``shard-flaky`` retry recovery);
* the supervised fan-out never blocks past ``deadline × (retries + 1)``
  (plus backoff) per task.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.config import BorgesConfig, UniverseConfig
from repro.core import BorgesPipeline, run_sharded
from repro.core.checkpoint import RunCheckpoint, run_identity
from repro.obs import MetricsRegistry
from repro.resilience.faults import (
    PROFILES,
    resolve_fault_profile,
    shard_fault_decision,
)
from repro.resilience.policy import RetryPolicy
from repro.runtime import run_supervised
from repro.universe import generate_universe

SMALL = UniverseConfig(seed=3, n_organizations=100)


@pytest.fixture(scope="module")
def small_universe():
    return generate_universe(SMALL)


def cluster_key(mapping):
    return sorted(sorted(cluster) for cluster in mapping.clusters())


# -- the supervised fan-out -------------------------------------------------


class TestRunSupervised:
    def test_all_ok_returns_values_in_order(self):
        outcomes = run_supervised(
            [lambda a, i=i: i * 10 for i in range(4)], mode="thread"
        )
        assert [o.value for o in outcomes] == [0, 10, 20, 30]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert run_supervised([], mode="process") == []

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_flaky_task_recovers_on_retry(self, mode):
        def flaky(attempt: int):
            if attempt == 0:
                raise RuntimeError("first attempt dies")
            return "recovered"

        (outcome,) = run_supervised([flaky], mode=mode, retries=2)
        assert outcome.ok
        assert outcome.value == "recovered"
        assert outcome.attempts == 2
        assert outcome.retries == 1

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_always_failing_task_quarantined(self, mode):
        def doomed(attempt: int):
            raise ValueError(f"doomed on {attempt}")

        (outcome,) = run_supervised([doomed], mode=mode, retries=1)
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.exit_reason == "error"
        assert "doomed" in outcome.error

    def test_process_crash_is_reported_not_raised(self):
        def crash(attempt: int):
            os._exit(41)

        (outcome,) = run_supervised([crash], mode="process", retries=1)
        assert not outcome.ok
        assert outcome.exit_reason == "crashed"
        assert outcome.attempts == 2

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_hung_task_killed_within_wall_clock_bound(self, mode):
        """The tight regression test: never blocks past deadline×(retries+1)."""
        deadline, retries = 0.4, 1

        def hang(attempt: int):
            time.sleep(60.0)
            return "never"

        started = time.monotonic()
        (outcome,) = run_supervised(
            [hang], mode=mode, deadline=deadline, retries=retries
        )
        elapsed = time.monotonic() - started
        assert not outcome.ok
        assert outcome.exit_reason == "deadline"
        assert outcome.attempts == retries + 1
        # deadline × attempts, plus generous supervision/backoff slack —
        # nowhere near the 60 s the task wanted.
        assert elapsed < deadline * (retries + 1) + 2.0

    def test_heartbeats_counted_in_process_mode(self):
        def slow_but_alive(attempt: int):
            time.sleep(0.5)
            return "done"

        (outcome,) = run_supervised(
            [slow_but_alive], mode="process", deadline=5.0
        )
        assert outcome.ok
        assert outcome.heartbeats > 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_backoff_does_not_hold_a_worker_slot(self, mode):
        """A task waiting out its retry backoff leaves its only slot to a
        ready sibling, so the sibling lands before the backoff ends."""
        backoff = 1.0

        def flaky(attempt: int):
            if attempt == 0:
                raise RuntimeError("first attempt dies")
            return "recovered"

        started = time.monotonic()
        landed = {}
        outcomes = run_supervised(
            [flaky, lambda a: "sibling"],
            mode=mode,
            max_workers=1,
            retries=1,
            retry_policy=RetryPolicy(
                attempts=2, base_delay=backoff, max_delay=backoff, jitter=0.0
            ),
            on_outcome=lambda o: landed.setdefault(
                o.index, time.monotonic() - started
            ),
        )
        assert [o.value for o in outcomes] == ["recovered", "sibling"]
        assert landed[1] < backoff
        assert landed[0] >= backoff

    def test_outcome_json_round_trip(self):
        (outcome,) = run_supervised([lambda a: "x"], mode="thread")
        record = outcome.to_json()
        assert record["ok"] is True
        assert record["attempts"] == 1
        assert record["retries"] == 0
        json.dumps(record)  # must be serialisable as-is

    def test_unknown_mode_rejected(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            run_supervised([lambda a: 1], mode="coroutine")


# -- deterministic shard fault decisions ------------------------------------


class TestShardFaultDecision:
    def test_crash_is_attempt_independent(self):
        profile = PROFILES["shard-crash"]
        for shard in range(8):
            first = shard_fault_decision(profile, 7, shard, 0)
            for attempt in range(1, 4):
                assert shard_fault_decision(profile, 7, shard, attempt) == first

    def test_flaky_only_poisons_attempt_zero(self):
        profile = PROFILES["shard-flaky"]
        decisions = [shard_fault_decision(profile, 7, s, 0) for s in range(16)]
        assert any(d == "crash" for d in decisions)
        assert all(
            shard_fault_decision(profile, 7, s, 1) is None for s in range(16)
        )

    def test_clean_profile_never_faults(self):
        profile = resolve_fault_profile("none")
        assert all(
            shard_fault_decision(profile, seed, shard, 0) is None
            for seed in range(3)
            for shard in range(8)
        )


# -- the run checkpoint -----------------------------------------------------


class TestRunCheckpoint:
    def test_begin_and_resume_same_identity(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "ckpt.jsonl")
        identity = run_identity({"whois": "d1"}, "cfg", 4, ["a", "b"])
        assert checkpoint.begin(identity, 4) == {}
        checkpoint.record_shard(
            2, merged=[frozenset({1, 2})], features={"rr": [frozenset({1, 2})]}
        )
        reopened = RunCheckpoint(tmp_path / "ckpt.jsonl")
        completed = reopened.begin(identity, 4)
        assert sorted(completed) == [2]
        assert RunCheckpoint.shard_clusters(completed[2]) == [frozenset({1, 2})]
        assert RunCheckpoint.shard_feature_clusters(completed[2]) == {
            "rr": [frozenset({1, 2})]
        }

    def test_identity_change_resets_file(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "ckpt.jsonl")
        checkpoint.begin("identity-a", 2)
        checkpoint.record_shard(0, merged=[frozenset({1})], features={})
        assert checkpoint.begin("identity-b", 2) == {}
        assert checkpoint.completed_shards("identity-a") == {}

    def test_corrupt_tail_dropped_and_survivors_kept(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        checkpoint = RunCheckpoint(path)
        checkpoint.begin("identity-a", 3)
        checkpoint.record_shard(0, merged=[frozenset({1})], features={})
        checkpoint.record_shard(1, merged=[frozenset({2})], features={})
        # Torn final write: a crash mid-append leaves half a JSON line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn":')
        reopened = RunCheckpoint(path)
        assert reopened.dropped_tail == 1
        assert sorted(reopened.begin("identity-a", 3)) == [0, 1]

    def test_identity_ignores_resilience_and_executor_config(self):
        import dataclasses

        from repro.config import ExecutorConfig, ResilienceConfig
        from repro.digest import stable_digest

        chaos = BorgesConfig().with_fault_profile("shard-crash")
        clean = BorgesConfig()

        def fingerprint(config):
            return stable_digest(
                dataclasses.replace(
                    config,
                    resilience=ResilienceConfig(),
                    executor=ExecutorConfig(),
                )
            )

        assert fingerprint(chaos) == fingerprint(clean)


# -- sharded runs under chaos -----------------------------------------------


class TestShardedChaos:
    def test_shard_crash_quarantines_and_salvages(
        self, small_universe, tmp_path
    ):
        """shard-crash at 4 shards: degraded, quarantined, salvage exact."""
        u = small_universe
        registry = MetricsRegistry()
        chaos = BorgesConfig().with_fault_profile("shard-crash")
        result = run_sharded(
            u.whois, u.pdb, u.web, chaos, 4,
            registry=registry,
            checkpoint_path=tmp_path / "ckpt.jsonl",
            shard_retries=1,
        )
        assert result.degraded is True
        assert result.failed_shards, "shard-crash at 4 shards must quarantine"
        posture = result.shard_posture()
        assert posture["degraded"] is True
        assert posture["failed"] == result.failed_shards
        assert posture["ok"] == 4 - len(result.failed_shards)
        # Attempt records: every quarantined shard exhausted its budget.
        by_shard = {int(r["shard"]): r for r in result.shard_attempts}
        for index in result.failed_shards:
            assert by_shard[index]["attempts"] == 2
            assert by_shard[index]["ok"] is False
            assert f"shard:{index}" in result.feature_errors
        fault = result.diagnostics["fault_tolerance"]
        assert fault["failed_shards"] == result.failed_shards
        assert fault["salvaged_shards"], "survivors must be salvaged"
        # Salvage contract (satellite): degraded mapping == unsharded
        # mapping restricted to the surviving shards' ASNs.
        flat = BorgesPipeline(u.whois, u.pdb, u.web, BorgesConfig()).run()
        survivors = set()
        for shard in result.partition.shards:
            if shard.index not in result.failed_shards:
                survivors.update(shard.asns)
        restricted = [
            trimmed
            for trimmed in (
                frozenset(cluster) & survivors
                for cluster in flat.mapping.clusters()
            )
            if trimmed
        ]
        assert cluster_key(result.mapping) == sorted(
            sorted(cluster) for cluster in restricted
        )
        # Telemetry: quarantine/retry counters and attempt histograms.
        from repro.obs import render_prometheus

        rendered = render_prometheus(registry)
        assert "pipeline_shard_quarantined_total" in rendered
        assert "pipeline_shard_attempts" in rendered
        assert registry.gauge(
            "pipeline_shards_failed", ""
        ).value == len(result.failed_shards)

    def test_shard_hang_killed_at_deadline_and_bounded(self, small_universe):
        u = small_universe
        chaos = BorgesConfig().with_fault_profile("shard-hang")
        started = time.monotonic()
        result = run_sharded(
            u.whois, u.pdb, u.web, chaos, 4,
            shard_deadline=0.5, shard_retries=1,
        )
        elapsed = time.monotonic() - started
        assert result.failed_shards, "shard-hang at 4 shards must quarantine"
        by_shard = {int(r["shard"]): r for r in result.shard_attempts}
        for index in result.failed_shards:
            assert by_shard[index]["exit_reason"] == "deadline"
        # Serial under chaos: 4 shards × deadline × 2 attempts + slack.
        assert elapsed < 4 * 0.5 * 2 + 10.0

    def test_all_shards_lost_raises(self, small_universe):
        from repro.errors import DataError

        u = small_universe
        # Every attempt of every shard crashes: nothing to salvage.
        chaos = BorgesConfig().with_fault_profile("shard-crash")
        profile = resolve_fault_profile("shard-crash")
        import dataclasses

        total = dataclasses.replace(profile, shard_crash=1.0)
        import repro.resilience.faults as faults_module

        original = faults_module.PROFILES["shard-crash"]
        faults_module.PROFILES["shard-crash"] = total
        try:
            with pytest.raises(DataError, match="nothing to salvage"):
                run_sharded(
                    u.whois, u.pdb, u.web, chaos, 4, shard_retries=0
                )
        finally:
            faults_module.PROFILES["shard-crash"] = original

    def test_thread_exception_names_its_shard(self, small_universe):
        """A shard failure's message carries the shard index (satellite)."""
        u = small_universe
        chaos = BorgesConfig().with_fault_profile("shard-crash")
        result = run_sharded(
            u.whois, u.pdb, u.web, chaos, 4, shard_retries=0
        )
        for index in result.failed_shards:
            error = result.feature_errors[f"shard:{index}"]
            assert f"shard {index}:" in error


# -- watch / serve surfacing ------------------------------------------------


class TestShardPostureSurfacing:
    def test_watch_status_and_healthz_carry_posture(self, tmp_path):
        from repro.core.mapping import OrgMapping
        from repro.obs import MetricsRegistry
        from repro.serve import QueryService
        from repro.serve.store import SnapshotStore
        from repro.watch import (
            RunJournal,
            SnapshotArchive,
            WatchConfig,
            WatchDaemon,
            WatchRunResult,
        )

        registry = MetricsRegistry()
        store = SnapshotStore(registry=registry)
        archive = SnapshotArchive(tmp_path / "archive", registry=registry)
        journal = RunJournal(tmp_path / "journal.jsonl")
        posture = {
            "shards": 4, "ok": 3, "failed": [2], "resumed": [],
            "retries": 1, "degraded": True,
        }
        mapping = OrgMapping(
            universe=[1, 2, 3],
            clusters=[frozenset({1, 2})],
            method="test",
        )

        def runner():
            return WatchRunResult(
                mapping=mapping,
                dataset_digest="d1",
                shard_posture=posture,
            )

        daemon = WatchDaemon(
            store, archive, journal, runner,
            WatchConfig(interval=0.0, max_cycles=1),
            registry=registry,
        )
        daemon.cycle()
        assert daemon.status()["last_shard_posture"] == posture
        service = QueryService(store=store, registry=registry)
        service.attach_watch(daemon)
        ready, body = service.health()
        assert ready
        assert body["watch"]["shard_posture"] == posture

    def test_top_renders_shard_posture_line(self):
        from repro.serve.top import TopView

        view = TopView("http://127.0.0.1:1")
        state = {
            "at": time.time(),
            "metrics": {},
            "health": {
                "status": "ok",
                "watch": {
                    "running": True,
                    "shard_posture": {
                        "shards": 4, "ok": 3, "failed": [2],
                        "resumed": [0], "retries": 2, "degraded": True,
                    },
                },
            },
        }
        rendered = view.render(state)
        assert "shards 3/4 ok" in rendered
        assert "QUARANTINED [2]" in rendered
        assert "retries 2" in rendered
