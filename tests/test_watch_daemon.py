"""Supervisor contract of the watch daemon, end to end.

Covers the cycle outcomes (publish, skip-unchanged, skip-quarantined,
gate-blocked, failed), the crash-ordering protocol — a simulated
``kill -9`` between archive publish and store swap must be finished by
``recover()`` from the journal without re-running the pipeline — the
restart budget, injected watch faults (slow pipeline, publish crash,
disk pressure), and the HTTP surface the daemon exposes through an
attached serve tier: time-travel ``?gen=``, ``/v1/diff``,
``/v1/admin/watch`` and the health/watch posture fields.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.config import UniverseConfig
from repro.core import BorgesPipeline
from repro.core.mapping import OrgMapping
from repro.obs import use_registry
from repro.resilience import PROFILES, FaultInjector
from repro.resilience.faults import FaultProfile
from repro.serve import MappingIndex, QueryServer, QueryService, SnapshotStore
from repro.serve.diff import diff_indexes
from repro.universe import generate_universe
from repro.watch import (
    GateThresholds,
    RunJournal,
    SimulatedProcessKill,
    SnapshotArchive,
    WatchConfig,
    WatchDaemon,
    WatchRunResult,
)

#: Thresholds that never block — most tests exercise plumbing, not the gate.
OPEN_GATE = GateThresholds(
    max_org_shrink=100.0,
    max_org_growth=100.0,
    max_coverage_drop=100.0,
    max_churn=100.0,
)


def make_mapping(groups):
    universe = sorted(asn for group in groups for asn in group)
    return OrgMapping(
        universe=universe,
        clusters=[frozenset(group) for group in groups],
        method="watch-test",
    )


def run_result(groups, digest, label="", precision=None):
    return WatchRunResult(
        mapping=make_mapping(groups),
        dataset_digest=digest,
        label=label or digest,
        precision=precision,
    )


class ScriptedRunner:
    """Yields queued results/exceptions; repeats the last one forever."""

    def __init__(self, *items):
        self.items = list(items)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        item = self.items.pop(0) if len(self.items) > 1 else self.items[0]
        if isinstance(item, BaseException):
            raise item
        return item


@pytest.fixture()
def registry():
    with use_registry() as reg:
        yield reg


def build_daemon(tmp_path, registry, runner, injector=None, config=None,
                 digest_probe=None, free_bytes_floor=0):
    store = SnapshotStore(registry=registry)
    archive = SnapshotArchive(
        tmp_path / "archive",
        registry=registry,
        injector=injector,
        free_bytes_floor=free_bytes_floor,
    )
    store.attach_archive(archive)
    journal = RunJournal(tmp_path / "journal.jsonl")
    daemon = WatchDaemon(
        store=store,
        archive=archive,
        journal=journal,
        runner=runner,
        config=config or WatchConfig(interval=0.0, thresholds=OPEN_GATE),
        digest_probe=digest_probe,
        registry=registry,
        injector=injector,
        sleep=lambda _seconds: None,
    )
    return daemon


class TestCycleOutcomes:
    def test_first_cycle_publishes_archives_and_swaps(self, tmp_path, registry):
        runner = ScriptedRunner(run_result([{1, 2}, {3}], "d1"))
        daemon = build_daemon(tmp_path, registry, runner)
        assert daemon.cycle() == "published"
        snapshot = daemon.store.current()
        assert snapshot.archive_generation == 1
        assert snapshot.source == "watch"
        assert daemon.archive.generations() == [1]
        assert [e["kind"] for e in daemon.journal.entries()] == [
            "start", "publish", "swap",
        ]
        assert daemon.status()["last_outcome"] == "published"

    def test_unchanged_digest_skips_without_publishing(self, tmp_path, registry):
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(tmp_path, registry, runner)
        assert daemon.cycle() == "published"
        assert daemon.cycle() == "skipped_unchanged"
        assert daemon.archive.generations() == [1]

    def test_run_on_unchanged_republishes(self, tmp_path, registry):
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        config = WatchConfig(
            interval=0.0, thresholds=OPEN_GATE, run_on_unchanged=True
        )
        daemon = build_daemon(tmp_path, registry, runner, config=config)
        assert daemon.cycle() == "published"
        assert daemon.cycle() == "published"
        assert daemon.archive.generations() == [1, 2]

    def test_digest_probe_skips_before_running_the_pipeline(
        self, tmp_path, registry
    ):
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(
            tmp_path, registry, runner, digest_probe=lambda: "d1"
        )
        assert daemon.cycle() == "published"
        calls_after_publish = runner.calls
        assert daemon.cycle() == "skipped_unchanged"
        assert runner.calls == calls_after_publish  # pipeline never ran

    def test_crashing_pipeline_is_contained(self, tmp_path, registry):
        runner = ScriptedRunner(
            run_result([{1, 2}], "d1"),
            ValueError("upstream feed exploded"),
            run_result([{1, 2}, {3}], "d2"),
        )
        daemon = build_daemon(tmp_path, registry, runner)
        assert daemon.cycle() == "published"
        assert daemon.cycle() == "failed"
        assert daemon.consecutive_failures == 1
        assert "ValueError" in daemon.last_error
        # Serving is untouched by the failure.
        assert daemon.store.current().archive_generation == 1
        assert daemon.journal.entries("fail")
        assert daemon.cycle() == "published"
        assert daemon.consecutive_failures == 0
        assert daemon.last_error == ""

    def test_gate_blocks_regression_and_keeps_serving(self, tmp_path, registry):
        runner = ScriptedRunner(
            run_result([{n} for n in range(1, 11)], "d1"),
            run_result([set(range(1, 11))], "d2"),  # collapse: one org
        )
        config = WatchConfig(interval=0.0)  # real default thresholds
        daemon = build_daemon(tmp_path, registry, runner, config=config)
        assert daemon.cycle() == "published"
        assert daemon.cycle() == "gate_blocked"
        assert daemon.store.current().archive_generation == 1
        assert daemon.archive.generations() == [1]
        gate_entries = daemon.journal.entries("gate")
        assert gate_entries and gate_entries[0]["fields"]["reasons"]
        decision = daemon.status()["last_gate_decision"]
        assert decision["allowed"] is False

    def test_precision_floor_blocks_even_at_bootstrap(self, tmp_path, registry):
        runner = ScriptedRunner(
            run_result([{1, 2}], "d1", precision=0.3)
        )
        config = WatchConfig(
            interval=0.0,
            thresholds=GateThresholds(
                max_org_shrink=100.0, max_org_growth=100.0,
                max_coverage_drop=100.0, max_churn=100.0,
                min_precision=0.9,
            ),
        )
        daemon = build_daemon(tmp_path, registry, runner, config=config)
        assert daemon.cycle() == "gate_blocked"
        assert daemon.store.current_or_none() is None

    def test_disk_pressure_fails_the_cycle_cleanly(self, tmp_path, registry):
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(
            tmp_path, registry, runner, free_bytes_floor=1 << 62
        )
        assert daemon.cycle() == "failed"
        assert "DiskPressureError" in daemon.last_error
        assert daemon.store.current_or_none() is None
        assert daemon.archive.generations() == []


class TestSupervisor:
    def test_restart_budget_halts_the_loop_not_the_process(
        self, tmp_path, registry
    ):
        runner = ScriptedRunner(RuntimeError("always dies"))
        config = WatchConfig(
            interval=0.0,
            thresholds=OPEN_GATE,
            max_cycles=50,
            max_restarts=2,
            restart_window=600.0,
        )
        daemon = build_daemon(tmp_path, registry, runner, config=config)
        cycles = daemon.run()
        assert daemon.halted
        # max_restarts failures fit the budget; the one after trips it.
        assert cycles == 3
        status = daemon.status()
        assert status["halted"] is True
        assert status["restart_budget"]["remaining"] == 0

    def test_slow_pipeline_fault_stalls_but_publishes(self, tmp_path, registry):
        stalls = []
        injector = FaultInjector(PROFILES["slow-pipeline"], seed=3)
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(tmp_path, registry, runner, injector=injector)
        daemon._sleep = stalls.append
        assert daemon.cycle() == "published"
        assert stalls == [PROFILES["slow-pipeline"].slow_pipeline_seconds]

    def test_max_cycles_bounds_run(self, tmp_path, registry):
        runner = ScriptedRunner(
            run_result([{1, 2}], "d1"), run_result([{1, 2}, {3}], "d2")
        )
        config = WatchConfig(
            interval=0.0, thresholds=OPEN_GATE, max_cycles=2
        )
        daemon = build_daemon(tmp_path, registry, runner, config=config)
        assert daemon.run() == 2
        assert daemon.store.current().archive_generation == 2


class TestCrashRecovery:
    def test_publish_crash_is_resumed_from_the_archive(self, tmp_path, registry):
        profile = FaultProfile(
            name="always-publish-crash", watch_publish_crash=1.0
        ).validate()
        runner = ScriptedRunner(run_result([{1, 2}, {3}], "d1"))
        daemon = build_daemon(
            tmp_path, registry, runner,
            injector=FaultInjector(profile, seed=5),
        )
        with pytest.raises(SimulatedProcessKill):
            daemon.cycle()
        # The kill window: archived + journaled, never swapped.
        assert daemon.archive.generations() == [1]
        assert daemon.journal.entries("publish")
        assert not daemon.journal.entries("swap")
        assert daemon.store.current_or_none() is None

        # "Restart": a fresh daemon over the same journal/archive/store.
        revived = WatchDaemon(
            store=daemon.store,
            archive=daemon.archive,
            journal=RunJournal(daemon.journal.path),
            runner=runner,
            config=WatchConfig(interval=0.0, thresholds=OPEN_GATE),
            registry=registry,
            sleep=lambda _s: None,
        )
        report = revived.recover()
        assert report["resumed_generation"] == 1
        snapshot = revived.store.current()
        assert snapshot.archive_generation == 1
        assert snapshot.source == "watch-resume"
        assert revived.journal.last_swapped_generation() == 1
        # The pipeline was NOT re-run to finish the job...
        assert runner.calls == 1
        # ...and the digest is now published: the next cycle skips it.
        assert revived.cycle() == "skipped_unchanged"
        assert revived.archive.generations() == [1]

    def test_two_orphan_crashes_quarantine_the_digest(self, tmp_path, registry):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("start", dataset_digest="killer", cycle=1)
        journal.append("start", dataset_digest="killer", cycle=2)
        runner = ScriptedRunner(run_result([{1, 2}], "killer"))
        daemon = build_daemon(tmp_path, registry, runner)
        report = daemon.recover()
        assert report["quarantined"] == ["killer"]
        assert daemon.cycle() == "skipped_quarantined"
        assert daemon.store.current_or_none() is None
        assert daemon.archive.generations() == []

    def test_single_orphan_is_retried_not_quarantined(self, tmp_path, registry):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append("start", dataset_digest="d1", cycle=1)
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(tmp_path, registry, runner)
        report = daemon.recover()
        assert report["quarantined"] == []
        assert daemon.cycle() == "published"

    def test_recover_on_clean_journal_is_a_no_op(self, tmp_path, registry):
        runner = ScriptedRunner(run_result([{1, 2}], "d1"))
        daemon = build_daemon(tmp_path, registry, runner)
        daemon.cycle()
        entries_before = len(daemon.journal)
        revived = build_daemon(tmp_path, registry, runner)
        report = revived.recover()
        assert report["resumed_generation"] == 0
        assert report["quarantined"] == []
        assert len(revived.journal) == entries_before


def answers(query, asns):
    """*query*'s answer per ASN, minus the fields that name the serving
    generation rather than the answer."""
    out = {}
    for asn in asns:
        response = dict(query(asn))
        for key in ("generation", "archived", "stale"):
            response.pop(key, None)
        out[asn] = response
    return out


@pytest.fixture(scope="module")
def borges_world():
    """A real mapping plus the WHOIS/PDB the live index takes names,
    websites and countries from."""
    universe = generate_universe(UniverseConfig(seed=3, n_organizations=100))
    result = BorgesPipeline(universe.whois, universe.pdb, universe.web).run()
    return universe, result.mapping


def world_result(world, digest):
    universe, mapping = world
    return WatchRunResult(
        mapping=mapping,
        dataset_digest=digest,
        label=digest,
        whois=universe.whois,
        pdb=universe.pdb,
    )


class TestArchivedAnswersMatchLive:
    """An archived generation answers exactly as it did live."""

    def test_time_travel_from_a_fresh_service(
        self, tmp_path, registry, borges_world
    ):
        asns = sorted(borges_world[0].whois.asns())
        runner = ScriptedRunner(
            world_result(borges_world, "d1"), run_result([{1, 2}], "d2")
        )
        daemon = build_daemon(tmp_path, registry, runner)
        assert daemon.cycle() == "published"
        live = answers(
            QueryService(store=daemon.store, registry=registry).lookup_asn,
            asns,
        )
        assert any(a["name"] and a["website"] for a in live.values())
        assert daemon.cycle() == "published"
        # A restarted server: nothing cached, generation 1 is retired.
        store = SnapshotStore(registry=registry)
        store.attach_archive(daemon.archive)
        service = QueryService(store=store, registry=registry)
        archived = answers(lambda asn: service.lookup_asn(asn, gen=1), asns)
        assert archived == live

    def test_resumed_generation_answers_as_live(
        self, tmp_path, registry, borges_world
    ):
        profile = FaultProfile(
            name="always-publish-crash", watch_publish_crash=1.0
        ).validate()
        runner = ScriptedRunner(world_result(borges_world, "d1"))
        daemon = build_daemon(
            tmp_path, registry, runner,
            injector=FaultInjector(profile, seed=5),
        )
        with pytest.raises(SimulatedProcessKill):
            daemon.cycle()
        revived = build_daemon(tmp_path, registry, runner)
        assert revived.recover()["resumed_generation"] == 1
        universe, mapping = borges_world
        live = MappingIndex.build(
            mapping, whois=universe.whois, pdb=universe.pdb
        )
        assert revived.store.current().index.blob == live.blob


def _get_raw(server, path):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


def _get(server, path):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class TestWatchServeSurface:
    @pytest.fixture()
    def world(self, tmp_path, registry):
        runner = ScriptedRunner(
            run_result([{1, 2}, {3, 4}], "d1", label="gen-one"),
            run_result([{1, 2, 3, 4}], "d2", label="gen-two"),
        )
        daemon = build_daemon(tmp_path, registry, runner)
        assert daemon.cycle() == "published"
        assert daemon.cycle() == "published"
        service = QueryService(store=daemon.store, registry=registry)
        service.attach_watch(daemon)
        with QueryServer(service) as server:
            yield daemon, service, server

    def test_time_travel_answers_from_the_archive(self, world):
        daemon, _service, server = world
        status, body = _get(server, "/v1/asn/3?gen=1")
        assert status == 200
        assert body["archived"] is True
        assert body["generation"] == 1
        # In generation 1, AS3's org was {3,4}; now it is {1,2,3,4}.
        old_org = body["org"]["org_id"]
        status, now = _get(server, "/v1/asn/3")
        assert status == 200
        assert now["generation"] == daemon.store.current().generation
        assert now["org"]["org_id"] != old_org

    def test_unknown_generation_is_404_not_5xx(self, world):
        _daemon, _service, server = world
        status, body = _get(server, "/v1/asn/3?gen=99")
        assert status == 404
        assert "generation" in body["error"]

    def test_corrupt_archive_entry_is_404_and_quarantined(self, world):
        daemon, _service, server = world
        path = daemon.archive._entry_path(1)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        status, body = _get(server, "/v1/asn/3?gen=1")
        assert status == 404
        assert "unreadable" in body["error"]
        assert path.with_name(path.name + ".quarantined").exists()

    def test_diff_endpoint_reports_the_merge(self, world):
        _daemon, _service, server = world
        status, body = _get(server, "/v1/diff?from=1&to=2")
        assert status == 200
        assert body["from"] == 1 and body["to"] == 2
        assert body["orgs_merged"] == 1
        assert body["asns_moved"] == 4
        status, body = _get(server, "/v1/diff?from=1")
        assert status == 400
        status, body = _get(server, "/v1/diff?from=1&to=77")
        assert status == 404

    def test_archived_bodies_are_the_dumps_of_their_dicts(self, world):
        """``?gen=`` and ``/v1/diff`` answer from cached bodies: a hit's
        bytes equal a miss's, and both are ``json.dumps`` of the dict the
        archived indexes give."""
        daemon, service, server = world
        old = daemon.store.generation_index(1)
        new = daemon.store.generation_index(2)
        expected = {
            "/v1/asn/3?gen=1": {
                **old.lookup_asn(3).to_json(),
                "generation": 1,
                "archived": True,
            },
            "/v1/diff?from=1&to=2": {
                "from": 1,
                "to": 2,
                **diff_indexes(old, new).to_json(),
            },
        }
        for path, response in expected.items():
            body = json.dumps(response).encode("utf-8")
            assert _get_raw(server, path) == _get_raw(server, path) == body
        assert service.lookup_asn(3, gen=1) == expected["/v1/asn/3?gen=1"]
        assert (
            service.generation_diff(1, 2) == expected["/v1/diff?from=1&to=2"]
        )

    def test_admin_watch_surfaces_daemon_status(self, world):
        daemon, _service, server = world
        status, body = _get(server, "/v1/admin/watch")
        assert status == 200
        assert body["cycles"] == 2
        assert body["halted"] is False
        assert body["last_outcome"] == "published"
        assert body["journal"]["published_digests"] == 2
        assert body["archive"]["entries"] == 2
        assert body["thresholds"]["max_churn"] == 100.0

    def test_healthz_carries_swap_and_watch_posture(self, world):
        _daemon, _service, server = world
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["stale"] is False
        assert body["swap_failures"] == 0
        assert body["rollback_count"] == 0
        watch = body["watch"]
        assert watch["halted"] is False
        assert watch["running"] is False  # cycles driven inline, no thread
        assert watch["consecutive_failures"] == 0

    def test_admin_watch_without_daemon_is_404(self, registry, tmp_path):
        store = SnapshotStore(registry=registry)
        store.load_from_mapping(make_mapping([{1, 2}]), label="solo")
        service = QueryService(store=store, registry=registry)
        with QueryServer(service) as server:
            status, body = _get(server, "/v1/admin/watch")
            assert status == 404


class TestWatchCommand:
    def test_cycle_digests_each_dataset_once(self, monkeypatch, tmp_path, capsys):
        # The unsharded runner reuses the digests BorgesPipeline took at
        # construction instead of hashing both datasets a second time.
        from repro.cli import main
        from repro.peeringdb import PDBSnapshot
        from repro.whois import WhoisDataset

        calls = {"whois": 0, "pdb": 0}
        for name, cls in (("whois", WhoisDataset), ("pdb", PDBSnapshot)):
            real = cls.content_digest

            def counted(self, _real=real, _name=name):
                calls[_name] += 1
                return _real(self)

            monkeypatch.setattr(cls, "content_digest", counted)
        with use_registry():
            assert main([
                "--seed", "5", "--orgs", "60", "watch",
                "--archive", str(tmp_path / "archive"),
                "--cycles", "2", "--interval", "0", "--evolve", "--no-http",
            ]) == 0
        assert "watch stopped after 2 cycles" in capsys.readouterr().out
        assert calls == {"whois": 2, "pdb": 2}
