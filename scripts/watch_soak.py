#!/usr/bin/env python3
"""CI soak for the continuous-operation (``borges watch``) subsystem.

Runs N accelerated refresh cycles against a live HTTP query server with
background loadgen traffic, while the chaos schedule injects every
failure mode the daemon claims to survive:

* **pipeline crashes** — the runner raises on a fixed schedule; the
  supervisor must journal the failure and keep serving;
* **publish-crash kills** — the ``publish-crash`` fault profile "kills
  the process" between the archive write and the store swap
  (:class:`SimulatedProcessKill`); the harness models the restart by
  building a fresh daemon over the same journal/archive/store, whose
  ``recover()`` must finish the swap from the archive without
  re-running the pipeline;
* **seeded regressions** — on a fixed schedule the runner returns a
  collapsed mapping (one giant org); the publish gate must block every
  one and leave the active generation untouched;
* **one corrupt archive entry** — mid-soak, an archived generation is
  bit-flipped on disk; a time-travel query for it must answer 404 (and
  quarantine the file), never a 5xx, and never touch the active path;
* **one corrupt archived blob** — the blob a retired generation is
  served from (time travel answers from the archived blob, not a
  rebuild) is bit-flipped; ``?gen=N`` and a ``/v1/diff`` touching that
  generation must answer 404 and the blob must be quarantined.

A second scenario exercises *sharded* refreshes: a refresh that loses a
shard to chaos produces a salvaged (coverage-reduced) mapping that the
publish gate must block — serving never flips to a degraded generation
without the gate recording why — and a kill mid-sharded-refresh leaves
the run checkpoint holding the completed shards, so the next cycle
re-runs strictly fewer shards than the total and publishes a mapping
built from journaled + fresh shards.

Exit assertions: zero 5xx across all loadgen traffic, the journal
replays cleanly afterwards (no dropped tail, chain intact), no archive
entry was ever overwritten (first-seen bytes stay byte-identical),
every seeded regression was gate-blocked, and ``/v1/diff`` between the
first and last published generations matches a locally computed diff.

Run:  PYTHONPATH=src python scripts/watch_soak.py [--cycles N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.mapping import OrgMapping  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.resilience import PROFILES, FaultInjector  # noqa: E402
from repro.serve import QueryServer, QueryService  # noqa: E402
from repro.serve.diff import diff_indexes  # noqa: E402
from repro.serve.index import MappingIndex  # noqa: E402
from repro.serve.store import SnapshotStore  # noqa: E402
from repro.watch import (  # noqa: E402
    GateThresholds,
    RunJournal,
    SimulatedProcessKill,
    SnapshotArchive,
    WatchConfig,
    WatchDaemon,
    WatchRunResult,
)
from repro.watch.archive import QUARANTINE_SUFFIX  # noqa: E402

#: Universe: ASNs 1000..1400 in orgs of four.
UNIVERSE = list(range(1000, 1400))

#: Cycle schedule (1-based): every 8th-from-3 crashes, 8th-from-5 regresses.
CRASH_EVERY, CRASH_PHASE = 8, 3
REGRESS_EVERY, REGRESS_PHASE = 8, 5


def expect(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(f"watch soak failed: {label}")


def drifted_mapping(step: int) -> OrgMapping:
    """The universe partitioned into orgs of 4, with a small per-step
    drift: a handful of ASNs rotate to the neighbouring org, so churn
    stays well under the gate threshold while every step differs."""
    clusters = [UNIVERSE[i:i + 4] for i in range(0, len(UNIVERSE), 4)]
    moved = 0
    for i in range(len(clusters) - 1):
        if (i + step) % 20 == 0 and len(clusters[i]) > 1:
            clusters[i + 1] = clusters[i + 1] + [clusters[i][-1]]
            clusters[i] = clusters[i][:-1]
            moved += 1
    return OrgMapping(UNIVERSE, clusters, method=f"soak-step-{step}")


def collapsed_mapping() -> OrgMapping:
    """The seeded regression: everything in one giant organization."""
    return OrgMapping(UNIVERSE, [UNIVERSE], method="soak-regression")


def fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def corrupt_retired_blob(archive, store, base: str, gen: int) -> int:
    """Bit-flip the archived blob of retired generation *gen*, which no
    reader has loaded: time travel and a diff through it must answer 404
    and the blob must be quarantined.  Returns *gen*."""
    expect(
        gen > 0 and store.current().archive_generation != gen,
        f"reserved gen {gen} is retired",
    )
    path = archive.blob_path(gen)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    code, body = fetch(f"{base}/v1/asn/{UNIVERSE[0]}?gen={gen}")
    expect(
        code == 404,
        f"corrupt blob of gen {gen} answers 404 "
        f"({body.get('error', '')[:40]}...)",
    )
    expect(
        path.with_name(path.name + QUARANTINE_SUFFIX).exists()
        and not path.exists(),
        "corrupt blob quarantined on disk",
    )
    active = store.current().archive_generation
    code, _ = fetch(f"{base}/v1/diff?from={gen}&to={active}")
    expect(code == 404, f"/v1/diff?from={gen}&to={active} answers 404")
    return gen


def run_soak(cycles: int, seed: int) -> int:
    registry = MetricsRegistry()
    injector = FaultInjector(
        PROFILES["publish-crash"], seed=seed, registry=registry
    )
    with TemporaryDirectory() as tmp:
        archive = SnapshotArchive(
            Path(tmp) / "archive", max_entries=cycles + 4, registry=registry
        )
        journal_path = Path(tmp) / "journal.jsonl"
        store = SnapshotStore(registry=registry)
        store.attach_archive(archive)
        service = QueryService(store=store, registry=registry)

        state = {"step": 0, "mode": "drift"}

        def runner() -> WatchRunResult:
            step = state["step"]
            if state["mode"] == "crash":
                raise RuntimeError(f"synthetic pipeline failure at step {step}")
            mapping = (
                collapsed_mapping() if state["mode"] == "regress"
                else drifted_mapping(step)
            )
            return WatchRunResult(
                mapping=mapping,
                dataset_digest=f"soak-dataset-{step}",
                label=f"step {step} ({state['mode']})",
            )

        config = WatchConfig(
            interval=0.0,
            thresholds=GateThresholds(),
            max_restarts=cycles,  # the harness, not the budget, drives halts
            restart_window=3600.0,
        )

        def build_daemon() -> WatchDaemon:
            daemon = WatchDaemon(
                store,
                archive,
                RunJournal(journal_path),
                runner,
                config,
                registry=registry,
                injector=injector,
                sleep=lambda _s: None,
            )
            daemon.recover()
            service.attach_watch(daemon)
            return daemon

        daemon = build_daemon()

        # gen -> [publish step or None, sha256 of file when first seen]
        published: dict = {}
        # The second and third published generations are reserved for
        # the corruption scenarios (entry, then blob): loadgen never
        # time-travels to them, so their indexes never reach the store's
        # LRU cache — the corrupt bytes MUST be noticed on the (first)
        # disk read.
        reserved: dict = {"entry": 0, "blob": 0}
        outcomes: list = []
        statuses: list = []
        stop = threading.Event()
        kills = 0
        corrupted_gen = 0
        corrupted_blob_gen = 0

        def snapshot_archive_bytes() -> None:
            for gen in archive.generations():
                digest = hashlib.sha256(
                    (archive.root / f"gen-{gen:06d}.json").read_bytes()
                ).hexdigest()
                if gen not in published:
                    published[gen] = [None, digest]
                else:
                    expect(
                        published[gen][1] == digest,
                        f"archive generation {gen} never overwritten",
                    )

        with QueryServer(service) as server:
            base = server.url
            print(f"soak server on {base} ({cycles} cycles)")

            def loadgen() -> None:
                i = 0
                while not stop.is_set():
                    asn = UNIVERSE[i % len(UNIVERSE)]
                    paths = [f"/v1/asn/{asn}", "/healthz", "/v1/admin/watch"]
                    gens = sorted(
                        g for g, v in list(published.items())
                        if v[0] is not None and g not in reserved.values()
                    )
                    if gens:
                        paths.append(f"/v1/asn/{asn}?gen={gens[i % len(gens)]}")
                    if len(gens) >= 2:
                        paths.append(f"/v1/diff?from={gens[0]}&to={gens[-1]}")
                    try:
                        code, _ = fetch(base + paths[i % len(paths)])
                    except OSError:
                        if stop.is_set():
                            break
                        code = 599  # connection failure counts as a 5xx
                    statuses.append(code)
                    i += 1

            threads = []
            for n in range(1, cycles + 1):
                state["step"] = n
                if n % CRASH_EVERY == CRASH_PHASE:
                    state["mode"] = "crash"
                elif n % REGRESS_EVERY == REGRESS_PHASE:
                    state["mode"] = "regress"
                else:
                    state["mode"] = "drift"
                active_before = store.current_or_none()
                try:
                    outcome = daemon.cycle()
                except SimulatedProcessKill:
                    # kill -9 between archive write and swap: restart.
                    kills += 1
                    daemon = build_daemon()
                    resumed = store.current()
                    newest = archive.generations()[-1]
                    expect(
                        resumed.archive_generation == newest,
                        f"restart {kills} resumed archived gen {newest} "
                        "without re-running the pipeline",
                    )
                    outcome = "published"  # recover() finished the cycle
                outcomes.append(outcome)
                if outcome == "published":
                    gen = store.current().archive_generation
                    entry_bytes = (
                        archive.root / f"gen-{gen:06d}.json"
                    ).read_bytes()
                    published.setdefault(
                        gen, [None, hashlib.sha256(entry_bytes).hexdigest()]
                    )
                    published[gen][0] = state["step"]
                    publishes = sorted(
                        g for g, v in published.items() if v[0] is not None
                    )
                    if len(publishes) == 2 and not reserved["entry"]:
                        reserved["entry"] = publishes[1]
                    if len(publishes) == 3 and not reserved["blob"]:
                        reserved["blob"] = publishes[2]
                if state["mode"] == "regress":
                    expect(
                        outcome == "gate_blocked",
                        f"cycle {n}: seeded regression gate-blocked",
                    )
                    after = store.current_or_none()
                    expect(
                        active_before is not None
                        and after is not None
                        and after.generation == active_before.generation,
                        f"cycle {n}: active generation untouched by "
                        "blocked candidate",
                    )
                if state["mode"] == "crash":
                    expect(
                        outcome == "failed",
                        f"cycle {n}: pipeline crash contained by supervisor",
                    )
                snapshot_archive_bytes()
                if n == 1:
                    # Traffic starts only once generation 1 serves: an
                    # empty store answers 503 by design, which is not
                    # the 5xx this soak hunts.
                    expect(
                        outcome == "published", "cycle 1 published gen 1"
                    )
                    # Daemon threads: a failed expect() exits the
                    # process instead of leaving loadgen spinning.
                    threads = [
                        threading.Thread(target=loadgen, daemon=True)
                        for _ in range(3)
                    ]
                    for t in threads:
                        t.start()
                if n == cycles // 2 and reserved["entry"]:
                    # The corrupt-snapshot scenario: bit-flip the
                    # reserved entry, which no reader has decoded yet.
                    corrupted_gen = reserved["entry"]
                    path = archive.root / f"gen-{corrupted_gen:06d}.json"
                    raw = bytearray(path.read_bytes())
                    raw[len(raw) // 2] ^= 0xFF
                    path.write_bytes(bytes(raw))
                    published.pop(corrupted_gen, None)
                    code, body = fetch(
                        f"{base}/v1/asn/{UNIVERSE[0]}?gen={corrupted_gen}"
                    )
                    expect(
                        code == 404,
                        f"corrupt archive gen {corrupted_gen} answers 404 "
                        f"({body.get('error', '')[:40]}...)",
                    )
                    expect(
                        path.with_name(
                            path.name + QUARANTINE_SUFFIX
                        ).exists(),
                        "corrupt entry quarantined on disk",
                    )
                    corrupted_blob_gen = corrupt_retired_blob(
                        archive, store, base, reserved["blob"]
                    )
                    published.pop(corrupted_blob_gen, None)

            stop.set()
            for t in threads:
                t.join(timeout=10.0)

            print(f"outcomes: { {o: outcomes.count(o) for o in set(outcomes)} }")
            expect(kills >= 1, f"publish-crash fired ({kills} kills)")
            expect(
                sum(1 for o in outcomes if o == "published") >= 3,
                "at least three generations published",
            )
            non_5xx = [s for s in statuses if s < 500]
            expect(
                len(non_5xx) == len(statuses),
                f"zero 5xx across {len(statuses)} loadgen requests "
                f"(got {sorted(set(statuses))})",
            )

            # /v1/diff between first and last published generations must
            # match a diff computed locally from the mappings we fed in.
            gens = sorted(g for g in published if published[g][0] is not None)
            first, last = gens[0], gens[-1]
            code, body = fetch(f"{base}/v1/diff?from={first}&to={last}")
            expect(code == 200, f"/v1/diff?from={first}&to={last} answered")
            local = diff_indexes(
                MappingIndex.build(drifted_mapping(published[first][0])),
                MappingIndex.build(drifted_mapping(published[last][0])),
            )
            expect(
                body["asns_moved"] == local.asns_moved
                and body["orgs_merged"] == local.orgs_merged
                and body["orgs_split"] == local.orgs_split,
                f"diff matches local computation "
                f"(moved {body['asns_moved']}, merged {body['orgs_merged']}, "
                f"split {body['orgs_split']})",
            )
            code, body = fetch(f"{base}/healthz")
            expect(
                code == 200 and body["status"] == "ok",
                "healthz ok after the soak",
            )

        # The journal must replay cleanly — chain intact, no dropped
        # tail — exactly as a post-kill restart would read it.
        replayed = RunJournal(journal_path)
        stats = replayed.stats()
        expect(
            stats["dropped_tail"] == 0,
            f"journal replays cleanly ({stats['entries']} entries)",
        )
        expect(
            len(replayed.published_digests()) == len(
                set(replayed.published_digests())
            ),
            "no dataset digest published twice",
        )
    expect(corrupted_blob_gen > 0, "blob corruption scenario ran")
    print(f"watch soak passed: {cycles} cycles, {kills} kills, "
          f"corrupted gen {corrupted_gen}, corrupted blob {corrupted_blob_gen}")
    return 0


def run_sharded_kill_scenario() -> int:
    """Kill a sharded refresh mid-run; the next cycle must resume.

    Four cycles against one daemon (restarted once, the kill):

    1. a clean 4-shard refresh publishes;
    2. a refresh that loses a shard to ``shard-crash`` hands the daemon
       a salvaged, coverage-reduced mapping — the publish gate must
       block it and serving must stay on the previous generation;
    3. a sharded refresh is killed after its surviving shards were
       journaled to the run checkpoint (``SimulatedProcessKill``, the
       same restart model the publish-crash soak uses);
    4. after the restart, the clean re-run resumes from the checkpoint
       — strictly fewer shards re-run than the total — and publishes.
    """
    from repro.config import BorgesConfig, UniverseConfig
    from repro.core import run_sharded
    from repro.universe import generate_universe

    print("sharded-refresh kill scenario")
    registry = MetricsRegistry()
    n_shards = 4
    u = generate_universe(UniverseConfig(seed=3, n_organizations=100))

    with TemporaryDirectory() as tmp:
        archive = SnapshotArchive(Path(tmp) / "archive", registry=registry)
        journal_path = Path(tmp) / "journal.jsonl"
        checkpoint_path = Path(tmp) / "archive" / "shard-checkpoint.jsonl"
        store = SnapshotStore(registry=registry)
        store.attach_archive(archive)

        # One universe throughout: the gate decisions below then hinge
        # purely on what the shard faults did (coverage loss from the
        # quarantined shard), not on dataset drift.  The daemon's
        # unchanged-digest skip is steered with an explicit digest.
        state = {"digest": "shard-soak-1", "profile": "none", "kill": False}

        def runner() -> WatchRunResult:
            config = BorgesConfig()
            if state["profile"] != "none":
                config = config.with_fault_profile(state["profile"])
            result = run_sharded(
                u.whois, u.pdb, u.web, config, n_shards,
                registry=registry,
                shard_retries=0,
                checkpoint_path=checkpoint_path,
                resume=True,
            )
            if state["kill"]:
                # The kill-during-refresh model: the surviving shards
                # are already journaled (record_shard fsyncs as each
                # lands), the process dies before the daemon sees a
                # result — exactly the on-disk state of a real kill -9
                # between shard K and K+1.
                raise SimulatedProcessKill(
                    "killed mid-sharded-refresh after checkpointing"
                )
            return WatchRunResult(
                mapping=result.mapping,
                dataset_digest=state["digest"],
                label=f"{state['digest']} ({state['profile']})",
                shard_posture=result.shard_posture(),
            )

        config = WatchConfig(
            interval=0.0, thresholds=GateThresholds(),
            max_restarts=10, restart_window=3600.0,
        )

        def build_daemon() -> WatchDaemon:
            daemon = WatchDaemon(
                store, archive, RunJournal(journal_path), runner,
                config, registry=registry, sleep=lambda _s: None,
            )
            daemon.recover()
            return daemon

        daemon = build_daemon()

        # Cycle 1: clean sharded refresh publishes generation 1.
        expect(daemon.cycle() == "published", "cycle 1: clean sharded publish")
        active = store.current()
        posture = daemon.status()["last_shard_posture"]
        expect(
            posture is not None and posture["ok"] == n_shards,
            f"cycle 1: posture {n_shards}/{n_shards} ok in daemon status",
        )

        # Cycle 2: a shard dies, the salvaged mapping loses its ASNs —
        # the gate must refuse to serve the degraded generation.  The
        # checkpoint is cleared first: with it, the chaos run would
        # resume every shard from cycle 1 and never fault.
        checkpoint_path.unlink()
        state.update(digest="shard-soak-2", profile="shard-crash")
        outcome = daemon.cycle()
        expect(
            outcome == "gate_blocked",
            "cycle 2: salvaged (degraded) mapping blocked by publish gate",
        )
        decision = daemon.status()["last_gate_decision"]
        expect(
            decision is not None and not decision.get("allowed", True)
            and decision.get("reasons"),
            f"cycle 2: gate recorded why ({(decision or {}).get('reasons')})",
        )
        expect(
            store.current().generation == active.generation,
            "cycle 2: serving never flipped to the degraded generation",
        )
        expect(
            (daemon.status()["last_shard_posture"] or {}).get("failed"),
            "cycle 2: daemon status shows the quarantined shard",
        )
        # Cycle 3: kill -9 mid-refresh.  Chaos quarantines one shard;
        # the survivors are journaled before the "process dies".  The
        # blocked cycle already journaled the same surviving shards, so
        # start the kill from an empty checkpoint to make the resume
        # accounting unambiguous.
        checkpoint_path.unlink()
        state.update(digest="shard-soak-3", profile="shard-crash", kill=True)
        try:
            daemon.cycle()
            expect(False, "cycle 3: kill fired")
        except SimulatedProcessKill:
            pass
        expect(
            store.current().generation == active.generation,
            "cycle 3: serving survived the mid-refresh kill",
        )

        # Cycle 4: restart, fault cleared.  The refresh must resume
        # from the checkpoint (fewer shards re-run than the total) and
        # publish a clean mapping.
        daemon = build_daemon()
        state.update(digest="shard-soak-4", profile="none", kill=False)
        expect(daemon.cycle() == "published", "cycle 4: resumed refresh published")
        posture = daemon.status()["last_shard_posture"]
        resumed = posture.get("resumed") or []
        expect(
            0 < len(resumed) < n_shards,
            f"cycle 4: resumed {len(resumed)}/{n_shards} shards from the "
            f"checkpoint (re-ran {n_shards - len(resumed)})",
        )
        expect(
            posture["ok"] == n_shards and not posture["failed"],
            "cycle 4: all shards accounted for, none quarantined",
        )
        expect(
            store.current().generation > active.generation,
            "cycle 4: serving flipped to the recovered generation",
        )
    print("sharded-refresh kill scenario passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cycles", type=int, default=24,
        help="refresh cycles to run (default 24)",
    )
    parser.add_argument("--seed", type=int, default=11, help="chaos seed")
    args = parser.parse_args()
    if args.cycles < 10:
        sys.exit("--cycles must be >= 10 (the chaos schedule needs room)")
    status = run_soak(args.cycles, args.seed)
    if status:
        return status
    return run_sharded_kill_scenario()


if __name__ == "__main__":
    sys.exit(main())
