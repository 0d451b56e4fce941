"""The supervised continuous-operation loop behind ``borges watch``.

One :class:`WatchDaemon` owns the write side of a long-running Borges
deployment: re-derive the mapping on a schedule (or when the dataset
digest changes), gate the candidate against the active generation,
archive it immutably, and hot-swap it into the serve tier — for hours or
days, unattended, without ever taking serving down.

The crash-ordering is the design.  A refresh cycle journals its steps
in an order chosen so that *any* ``kill -9`` leaves a resumable state::

    start(digest)                 # crash here → orphan start, re-run;
    run pipeline                  #   two orphans quarantine the digest
    gate candidate                # crash → re-run (nothing published)
    archive.publish  → gen N      # crash → gen N burned, never reused;
    journal.publish(digest, N)    #   re-run re-publishes as gen N+1
    store.swap       → serving    # crash between publish and swap →
    journal.swap(N)               #   recover() installs gen N from the
                                  #   archive without re-running

:meth:`recover` is the other half: on startup it quarantines digests
with two orphan crashes, and when the journal shows a published
generation that never swapped, it installs that generation from the
archive — digest-verified — so a killed daemon resumes instead of
re-deriving (and re-paying for) work it already finished.

Failures are budgeted, not fatal: a crashing pipeline run is journaled,
backed off with the same seeded-jitter schedule
:class:`~repro.resilience.RetryPolicy` gives the LLM client, and
retried — until ``max_restarts`` failures land inside
``restart_window`` seconds, at which point the refresh loop *halts*
(``watch.halted`` event, gauge set) while the serve tier keeps
answering from the last good generation.  A wedged refresh loop is an
operator page, not an outage.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from ..core.mapping import OrgMapping
from ..errors import ReproError
from ..obs import get_registry
from ..obs.log import get_event_log
from ..resilience.policy import RetryPolicy
from ..serve.index import MappingIndex
from ..serve.store import SnapshotStore
from .archive import SnapshotArchive
from .gate import GateThresholds, PublishGate
from .journal import QUARANTINE_CRASHES, RunJournal

#: Cycle outcomes tracked in ``watch_cycles_total``.
OUTCOMES = (
    "published",
    "skipped_unchanged",
    "skipped_quarantined",
    "gate_blocked",
    "failed",
)

#: Outcomes whose ``watch.cycle`` event is a warning (stderr by default).
_WARNING_OUTCOMES = frozenset(("gate_blocked", "failed"))


class SimulatedProcessKill(BaseException):
    """The ``publish-crash`` fault: the process 'dies' at this instruction.

    Deliberately a ``BaseException``: the supervisor's pipeline-crash
    handling must *not* catch it — a real ``kill -9`` writes no journal
    entry, runs no cleanup, and is survived purely by the crash-ordering
    of the entries already on disk.  Chaos harnesses catch it one frame
    up and model the restart by building a fresh daemon over the same
    journal, archive and store.
    """


@dataclass(frozen=True)
class WatchRunResult:
    """What one pipeline refresh hands the daemon."""

    mapping: OrgMapping
    dataset_digest: str
    label: str = ""
    whois: object = None
    pdb: object = None
    #: Ground-truth precision when the runner can measure it, else None.
    precision: Optional[float] = None
    #: Sharded-refresh posture (``ShardedBorgesResult.shard_posture()``)
    #: when the runner executes sharded, else None.
    shard_posture: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class WatchConfig:
    """Knobs for the refresh loop; validated at daemon construction."""

    interval: float = 60.0
    max_cycles: int = 0
    thresholds: GateThresholds = field(default_factory=GateThresholds)
    #: Backoff schedule after failed cycles (seeded jitter, like every
    #: other retry surface in the repo).  ``attempts`` is ignored — the
    #: restart budget below is the loop's give-up condition.
    backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            attempts=8, base_delay=0.5, max_delay=30.0
        )
    )
    max_restarts: int = 5
    restart_window: float = 600.0
    #: Re-publish even when the dataset digest matches the last publish.
    run_on_unchanged: bool = False


class WatchDaemon:
    """Supervised refresh loop over a store, archive and journal."""

    def __init__(
        self,
        store: SnapshotStore,
        archive: SnapshotArchive,
        journal: RunJournal,
        runner: Callable[[], WatchRunResult],
        config: Optional[WatchConfig] = None,
        digest_probe: Optional[Callable[[], str]] = None,
        registry=None,
        injector=None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.store = store
        self.archive = archive
        self.journal = journal
        self.runner = runner
        self.config = config or WatchConfig()
        self.config.thresholds.validate()
        self.digest_probe = digest_probe
        self.registry = registry or get_registry()
        self._injector = injector
        self._sleep = sleep
        self.gate = PublishGate(self.config.thresholds)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: True while :meth:`run` is executing — in a background thread
        #: *or* the caller's own (the ``borges watch`` CLI blocks on it).
        self._loop_active = False
        self._lock = threading.Lock()
        self._failure_times: Deque[float] = deque()
        self.cycles = 0
        self.consecutive_failures = 0
        self.halted = False
        self.last_outcome = ""
        self.last_error = ""
        self.last_cycle_at = 0.0
        self.last_gate_decision: Optional[Dict[str, object]] = None
        self.last_shard_posture: Optional[Dict[str, object]] = None
        self._outcome_counters = {
            outcome: self.registry.counter(
                "watch_cycles_total",
                "Watch refresh cycles by outcome",
                outcome=outcome,
            )
            for outcome in OUTCOMES
        }
        self._cycle_seconds = self.registry.histogram(
            "watch_cycle_seconds", "Wall time of one watch refresh cycle"
        )
        self._halted_gauge = self.registry.gauge(
            "watch_halted", "1 when the refresh loop exhausted its restart budget"
        )
        self._failures_gauge = self.registry.gauge(
            "watch_consecutive_failures",
            "Consecutive failed refresh cycles (resets on success)",
        )

    # -- plumbing ----------------------------------------------------------

    def _fault(self, key: str) -> Optional[str]:
        if self._injector is None:
            return None
        from ..resilience.faults import WATCH_SURFACE

        return self._injector.next_fault(WATCH_SURFACE, key)

    def _emit(self, name: str, severity: str = "info", **fields: object) -> None:
        get_event_log().emit(name, severity=severity, **fields)

    def _record_outcome(self, outcome: str, **fields: object) -> str:
        with self._lock:
            self.last_outcome = outcome
            self.last_cycle_at = time.time()
        self._outcome_counters[outcome].inc()
        self._emit(
            "watch.cycle",
            severity="warning" if outcome in _WARNING_OUTCOMES else "info",
            outcome=outcome,
            cycle=self.cycles,
            **fields,
        )
        return outcome

    def _record_failure(self, error: str) -> None:
        now = time.monotonic()
        with self._lock:
            self.consecutive_failures += 1
            self.last_error = error
            self._failure_times.append(now)
            window_start = now - self.config.restart_window
            while self._failure_times and self._failure_times[0] < window_start:
                self._failure_times.popleft()
            if len(self._failure_times) > self.config.max_restarts:
                self.halted = True
        self._failures_gauge.set(self.consecutive_failures)
        if self.halted:
            self._halted_gauge.set(1)
            self._emit(
                "watch.halted",
                severity="error",
                failures_in_window=len(self._failure_times),
                window_seconds=self.config.restart_window,
            )

    def _record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.last_error = ""
        self._failures_gauge.set(0)

    # -- recovery ----------------------------------------------------------

    def recover(self) -> Dict[str, object]:
        """Resume from the journal: quarantine crashers, finish swaps.

        Must run before the first cycle (and before any entry is
        appended — orphan detection keys off the journal's tail).
        """
        report: Dict[str, object] = {
            "quarantined": [],
            "resumed_generation": 0,
            "dropped_tail": self.journal.dropped_tail,
        }
        explicit = {
            str(e["fields"].get("dataset_digest", ""))
            for e in self.journal.entries("quarantine")
        }
        for digest, crashes in sorted(self.journal.orphan_crash_counts().items()):
            if digest and crashes >= QUARANTINE_CRASHES and digest not in explicit:
                self.journal.append(
                    "quarantine", dataset_digest=digest, crashes=crashes
                )
                report["quarantined"].append(digest)
                self._emit(
                    "watch.quarantine",
                    severity="warning",
                    dataset_digest=digest,
                    crashes=crashes,
                )
        last = self.journal.last_published()
        if last is None:
            return report
        published_gen = int(last.get("archive_generation", 0))
        if published_gen <= self.journal.last_swapped_generation():
            return report
        # Published but never swapped: the kill-between-archive-and-swap
        # window.  Install the archived blob — digest-verified, the very
        # index the gate passed — instead of re-running the pipeline.
        try:
            self.archive.read(published_gen)
            index = MappingIndex(self.archive.read_blob(published_gen))
        except (ReproError, OSError) as exc:
            self._emit(
                "watch.resume_failed",
                severity="warning",
                archive_generation=published_gen,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.journal.append(
                "fail",
                dataset_digest=str(last.get("dataset_digest", "")),
                error=f"resume failed: {exc}",
            )
            return report
        snapshot = self.store.swap(
            index,
            source="watch-resume",
            label=f"archive gen {published_gen}",
            archive_generation=published_gen,
        )
        self.journal.append(
            "swap",
            dataset_digest=str(last.get("dataset_digest", "")),
            archive_generation=published_gen,
            store_generation=snapshot.generation,
        )
        report["resumed_generation"] = published_gen
        self._emit(
            "watch.resume",
            archive_generation=published_gen,
            store_generation=snapshot.generation,
        )
        return report

    # -- one cycle ---------------------------------------------------------

    def cycle(self) -> str:
        """Run one refresh cycle; returns the outcome label."""
        self.cycles += 1
        started = time.perf_counter()
        try:
            outcome = self._cycle_body()
        finally:
            self._cycle_seconds.observe(time.perf_counter() - started)
        return outcome

    def _cycle_body(self) -> str:
        published = self.journal.published_digests()
        quarantined = self.journal.quarantined_digests()
        probed = self.digest_probe() if self.digest_probe is not None else ""
        if probed:
            if probed in quarantined:
                self.journal.append(
                    "skip", dataset_digest=probed, reason="quarantined"
                )
                return self._record_outcome(
                    "skipped_quarantined", dataset_digest=probed
                )
            if probed in published and not self.config.run_on_unchanged:
                self.journal.append(
                    "skip", dataset_digest=probed, reason="unchanged"
                )
                return self._record_outcome(
                    "skipped_unchanged", dataset_digest=probed
                )
        self.journal.append("start", dataset_digest=probed, cycle=self.cycles)
        if self._fault("cycle") == "slow_pipeline":
            stall = self._injector.profile.slow_pipeline_seconds
            self._emit("watch.slow_pipeline", severity="warning", stall=stall)
            (self._sleep or time.sleep)(stall)
        try:
            result = self.runner()
        except SimulatedProcessKill:
            raise
        except Exception as exc:  # noqa: BLE001 — the supervisor boundary:
            # a crashing pipeline must not take down serving.
            error = f"{type(exc).__name__}: {exc}"
            self.journal.append("fail", dataset_digest=probed, error=error)
            self._record_failure(error)
            return self._record_outcome("failed", error=error)
        if result.shard_posture is not None:
            with self._lock:
                self.last_shard_posture = dict(result.shard_posture)
            if result.shard_posture.get("failed"):
                self._emit(
                    "watch.shards_degraded",
                    severity="warning",
                    **result.shard_posture,
                )
        digest = result.dataset_digest
        if digest in quarantined:
            self.journal.append(
                "skip", dataset_digest=digest, reason="quarantined"
            )
            return self._record_outcome(
                "skipped_quarantined", dataset_digest=digest
            )
        if digest in published and not self.config.run_on_unchanged:
            self.journal.append("skip", dataset_digest=digest, reason="unchanged")
            return self._record_outcome(
                "skipped_unchanged", dataset_digest=digest
            )
        candidate = MappingIndex.build(
            result.mapping, whois=result.whois, pdb=result.pdb
        )
        active = self.store.current_or_none()
        decision = self.gate.evaluate(
            candidate,
            active.index if active is not None else None,
            precision=result.precision,
        )
        with self._lock:
            self.last_gate_decision = decision.to_json()
        if not decision.allowed:
            self.journal.append(
                "gate",
                dataset_digest=digest,
                reasons=list(decision.reasons),
                metrics=decision.metrics,
            )
            self.registry.counter(
                "watch_gate_blocked_total",
                "Candidate generations refused by the publish gate",
            ).inc()
            return self._record_outcome(
                "gate_blocked",
                dataset_digest=digest,
                reasons=list(decision.reasons),
            )
        try:
            entry = self.archive.publish(
                result.mapping,
                label=result.label or f"cycle {self.cycles}",
                dataset_digest=digest,
                meta={"gate": decision.metrics},
                # The gate already built this generation's index; time
                # travel and resume serve its archived blob.
                index=candidate,
            )
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
            self.journal.append("fail", dataset_digest=digest, error=error)
            self._record_failure(error)
            return self._record_outcome("failed", error=error)
        archive_generation = int(entry["archive_generation"])
        self.journal.append(
            "publish",
            dataset_digest=digest,
            archive_generation=archive_generation,
            label=result.label,
        )
        if self._fault("publish") == "publish_crash":
            # The chaos contract: the "process" dies after the archive
            # write and journal entry, before the swap.  recover() must
            # finish the job from the archive.
            raise SimulatedProcessKill(
                f"publish-crash fault after archiving generation "
                f"{archive_generation}"
            )
        snapshot = self.store.swap(
            candidate,
            source="watch",
            label=result.label or f"cycle {self.cycles}",
            archive_generation=archive_generation,
        )
        self.journal.append(
            "swap",
            dataset_digest=digest,
            archive_generation=archive_generation,
            store_generation=snapshot.generation,
        )
        self._record_success()
        return self._record_outcome(
            "published",
            dataset_digest=digest,
            archive_generation=archive_generation,
            store_generation=snapshot.generation,
            orgs=len(candidate),
            asns=candidate.asn_count,
        )

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Blocking refresh loop; returns the number of cycles run."""
        self._loop_active = True
        try:
            self.recover()
            while not self._stop.is_set() and not self.halted:
                if (
                    self.config.max_cycles
                    and self.cycles >= self.config.max_cycles
                ):
                    break
                outcome = self.cycle()
                if (
                    self.config.max_cycles
                    and self.cycles >= self.config.max_cycles
                ):
                    break
                if outcome == "failed":
                    delay = self.config.backoff.delay_for(
                        min(self.consecutive_failures, 30), key="watch"
                    )
                else:
                    delay = self.config.interval
                if self._sleep is not None:
                    if delay > 0.0:
                        self._sleep(delay)
                else:
                    self._stop.wait(delay)
            return self.cycles
        finally:
            self._loop_active = False

    def start(self) -> "WatchDaemon":
        """Run the loop in a daemon thread (the serve-tier co-host mode)."""
        self._thread = threading.Thread(
            target=self.run, name="borges-watch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # -- status ------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The ``/v1/admin/watch`` body: everything an operator asks first."""
        thread = self._thread
        with self._lock:
            failures_in_window = len(self._failure_times)
            out: Dict[str, object] = {
                "running": self._loop_active
                or (thread is not None and thread.is_alive()),
                "cycles": self.cycles,
                "halted": self.halted,
                "consecutive_failures": self.consecutive_failures,
                "failures_in_window": failures_in_window,
                "restart_budget": {
                    "max_restarts": self.config.max_restarts,
                    "window_seconds": self.config.restart_window,
                    "remaining": max(
                        0, self.config.max_restarts - failures_in_window
                    ),
                },
                "last_outcome": self.last_outcome,
                "last_error": self.last_error,
                "last_cycle_at": self.last_cycle_at,
                "interval_seconds": self.config.interval,
                "thresholds": self.config.thresholds.to_json(),
                "last_gate_decision": self.last_gate_decision,
                "last_shard_posture": self.last_shard_posture,
            }
        out["journal"] = self.journal.stats()
        out["archive"] = self.archive.stats()
        return out
