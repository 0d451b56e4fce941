"""Supervised fan-out: run every task to a structured outcome.

:func:`run_supervised` is the one fan-out primitive both shard worker
modes share.  One scheduling loop owns the policy — a ready queue, a
backoff schedule, a deadline check and the ``on_outcome`` path — and a
small launcher per mode owns the mechanics of an attempt:

=========  =================================  ==========================
mode       start / report                     stop (deadline)
=========  =================================  ==========================
process    fork; heartbeats and one pickled   SIGKILL, drain the pipe,
           result over a pipe                 reap the child
thread     daemon thread; the result handed   abandon (threads cannot
           over in-process, never pickled     be killed; a late result
                                              is ignored)
=========  =================================  ==========================

A failed attempt waits out its backoff in the schedule, not in a
worker slot, so a ready sibling runs meanwhile.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ServeError
from ..obs.log import get_event_log
from ..resilience.policy import RetryPolicy

#: Fork start method: children inherit the thunk's closure by memory, so
#: thunks need not be picklable; only results cross the pipe.
_MP = multiprocessing.get_context("fork")

#: Seconds between a forked child's liveness beats over its result pipe.
HEARTBEAT_INTERVAL = 0.2


@dataclass
class ForkedOutcome:
    """Final verdict for one supervised task across all of its attempts.

    ``exit_reason`` is the *last* attempt's fate: ``ok``, ``error`` (the
    thunk raised), ``crashed`` (the child died without reporting —
    segfault, ``kill -9``, ``os._exit``) or ``deadline`` (the watchdog
    SIGKILLed / abandoned a hung attempt).
    """

    index: int
    ok: bool
    value: object = None
    error: str = ""
    exit_reason: str = "ok"
    attempts: int = 1
    duration_seconds: float = 0.0
    heartbeats: int = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "ok": self.ok,
            "error": self.error,
            "exit_reason": self.exit_reason,
            "attempts": self.attempts,
            "retries": self.retries,
            "duration_seconds": round(self.duration_seconds, 6),
            "heartbeats": self.heartbeats,
        }


@dataclass(eq=False)
class _Attempt:
    """One in-flight attempt; hashed by identity."""

    index: int
    attempt: int  # 0-based
    started: float
    heartbeats: int = 0
    proc: object = None  # process mode
    conn: object = None  # process mode: the parent's pipe end


#: What a launcher reports: (attempt, tag, payload) with tag one of
#: ``hb`` (liveness beat), ``ok`` (payload = value), ``err`` or
#: ``crashed`` (payload = error message).
_Report = Tuple[_Attempt, str, object]


def _child_main(thunk, attempt: int, conn) -> None:
    """Forked child: heartbeat over the result pipe while the thunk runs.

    The pipe carries ``(tag, payload)`` tuples — ``("hb", n)`` liveness
    beats from a daemon thread, then exactly one ``("ok", result)`` or
    ``("err", message)``.  A lock serialises the two senders; interleaved
    ``send`` calls from different threads would corrupt the stream.
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        beats = 0
        while not stop.wait(HEARTBEAT_INTERVAL):
            beats += 1
            try:
                with send_lock:
                    conn.send(("hb", beats))
            except OSError:
                return

    threading.Thread(target=_beat, daemon=True, name="borges-heartbeat").start()
    try:
        report = ("ok", thunk(attempt))
    except BaseException as exc:  # noqa: BLE001 — report, don't traceback
        report = ("err", f"{type(exc).__name__}: {exc}")
    stop.set()
    try:
        with send_lock:
            conn.send(report)
    finally:
        conn.close()
    os._exit(0 if report[0] == "ok" else 1)


def _drain_and_reap(conn, proc, timeout: float = 5.0) -> None:
    """Drain a child's pipe end, then terminate and join the child.

    Order matters: a child mid-``send`` of a payload larger than the
    pipe buffer is blocked in ``write(2)`` and cannot exit, so a
    ``join()`` that never drains the parent end deadlocks.  Drain first,
    keep draining while the join waits, escalate to SIGKILL at the
    timeout.
    """

    def _drain() -> None:
        try:
            while conn.poll(0):
                try:
                    conn.recv()
                except (EOFError, OSError):
                    return
        except (OSError, ValueError):
            return

    _drain()
    if proc.is_alive():
        proc.terminate()
    deadline = time.monotonic() + timeout
    while proc.is_alive() and time.monotonic() < deadline:
        _drain()
        proc.join(0.05)
    if proc.is_alive():
        proc.kill()
    proc.join(1.0)
    conn.close()


class _ForkLauncher:
    """Attempts as forked children reporting over a pipe."""

    def __init__(self, thunks: Sequence[Callable[[int], object]]) -> None:
        self._thunks = thunks
        self._pipes: Dict[object, _Attempt] = {}

    def start(self, run: _Attempt) -> None:
        parent, child = _MP.Pipe(duplex=False)
        run.proc = _MP.Process(
            target=_child_main,
            args=(self._thunks[run.index], run.attempt, child),
            daemon=True,
            name=f"borges-supervised-{run.index}-a{run.attempt}",
        )
        run.proc.start()
        child.close()
        run.conn = parent
        self._pipes[parent] = run

    def wait(self, timeout: Optional[float]) -> List[_Report]:
        reports: List[_Report] = []
        for conn in _connection_wait(list(self._pipes), timeout):
            run = self._pipes[conn]
            try:
                tag, payload = conn.recv()
            except (EOFError, OSError):
                tag, payload = "crashed", None
            if tag != "hb":
                del self._pipes[conn]
                conn.close()
                run.proc.join()
            if tag == "crashed":
                payload = (
                    f"exited with code {run.proc.exitcode} "
                    "before reporting a result"
                )
            reports.append((run, tag, payload))
        return reports

    def stop(self, run: _Attempt) -> str:
        del self._pipes[run.conn]
        # SIGKILL, not SIGTERM: a truly hung child may ignore or never
        # reach a TERM handler.
        run.proc.kill()
        _drain_and_reap(run.conn, run.proc)
        return f"SIGKILLed after {run.heartbeats} heartbeats"


class _ThreadLauncher:
    """Attempts as daemon threads handing results over in-process."""

    def __init__(self, thunks: Sequence[Callable[[int], object]]) -> None:
        self._thunks = thunks
        self._reports: "queue.Queue[_Report]" = queue.Queue()

    def start(self, run: _Attempt) -> None:
        thunk = self._thunks[run.index]

        def _body() -> None:
            try:
                report = (run, "ok", thunk(run.attempt))
            except BaseException as exc:  # noqa: BLE001 — report, don't raise
                report = (run, "err", f"{type(exc).__name__}: {exc}")
            self._reports.put(report)

        threading.Thread(
            target=_body,
            daemon=True,
            name=f"borges-supervised-{run.index}-a{run.attempt}",
        ).start()

    def wait(self, timeout: Optional[float]) -> List[_Report]:
        try:
            reports = [self._reports.get(timeout=timeout)]
        except queue.Empty:
            return []
        while True:
            try:
                reports.append(self._reports.get_nowait())
            except queue.Empty:
                return reports

    def stop(self, run: _Attempt) -> str:
        # A thread cannot be killed: the supervisor stops waiting and the
        # daemon thread's late report is dropped as not in flight.
        return "attempt abandoned"


_LAUNCHERS = {"process": _ForkLauncher, "thread": _ThreadLauncher}


def run_supervised(
    thunks: Sequence[Callable[[int], object]],
    *,
    max_workers: Optional[int] = None,
    mode: str = "process",
    deadline: Optional[float] = None,
    retries: int = 0,
    retry_policy: Optional[RetryPolicy] = None,
    on_outcome: Optional[Callable[[ForkedOutcome], None]] = None,
) -> List[ForkedOutcome]:
    """Supervised fan-out: run each thunk to a :class:`ForkedOutcome`.

    Each *thunk* is called as ``thunk(attempt)`` (0-based attempt
    number).  At most *max_workers* attempts run at once.  An attempt
    that raises, crashes, or outlives *deadline* seconds is retried up
    to *retries* more times after *retry_policy*'s seeded-jitter
    backoff.  Nothing raises: every task gets an outcome, returned in
    input order, and ``on_outcome`` fires from the supervisor as each
    task reaches its final verdict.

    The total wall clock per task is bounded by
    ``deadline × (retries + 1)`` plus backoff, which is what makes a
    sharded run survive a sleep-forever shard.
    """
    thunks = list(thunks)
    if not thunks:
        return []
    if mode not in _LAUNCHERS:
        raise ServeError(f"unknown supervised mode {mode!r}")
    launcher = _LAUNCHERS[mode](thunks)
    cap = max(1, max_workers if max_workers else len(thunks))
    policy = retry_policy or RetryPolicy(base_delay=0.0, jitter=0.0)
    outcomes: List[Optional[ForkedOutcome]] = [None] * len(thunks)
    spent = [0.0] * len(thunks)  # attempt seconds per task
    heartbeats = [0] * len(thunks)
    ready = deque((index, 0) for index in range(len(thunks)))
    backoff: List[Tuple[float, int, int]] = []  # heap: (ready_at, index, attempt)
    active: set = set()

    def settle(run: _Attempt, ok: bool, value, error: str, reason: str) -> None:
        spent[run.index] += time.monotonic() - run.started
        if not ok and run.attempt < retries:
            delay = policy.delay_for(run.attempt + 1, key=f"task-{run.index}")
            heapq.heappush(
                backoff, (time.monotonic() + delay, run.index, run.attempt + 1)
            )
            get_event_log().emit(
                "supervise.retry",
                severity="warning",
                task=run.index,
                attempt=run.attempt + 1,
                reason=reason,
                error=error,
                delay_seconds=round(delay, 3),
            )
            return
        outcome = ForkedOutcome(
            index=run.index,
            ok=ok,
            value=value,
            error=error,
            exit_reason=reason,
            attempts=run.attempt + 1,
            duration_seconds=spent[run.index],
            heartbeats=heartbeats[run.index],
        )
        outcomes[run.index] = outcome
        if on_outcome is not None:
            on_outcome(outcome)

    try:
        while ready or backoff or active:
            now = time.monotonic()
            while backoff and backoff[0][0] <= now:
                ready.append(heapq.heappop(backoff)[1:])
            while ready and len(active) < cap:
                index, attempt = ready.popleft()
                run = _Attempt(index, attempt, time.monotonic())
                launcher.start(run)
                active.add(run)
            wake = (
                [run.started + deadline for run in active]
                if deadline is not None else []
            )
            if backoff:
                wake.append(backoff[0][0])
            timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
            for run, tag, payload in launcher.wait(timeout):
                if run not in active:
                    continue  # a late report from an abandoned attempt
                if tag == "hb":
                    run.heartbeats += 1
                    heartbeats[run.index] += 1
                    continue
                active.remove(run)
                if tag == "ok":
                    settle(run, True, payload, "", "ok")
                else:
                    settle(run, False, None, str(payload),
                           "error" if tag == "err" else "crashed")
            if deadline is not None:
                now = time.monotonic()
                for run in [r for r in active if now - r.started >= deadline]:
                    active.remove(run)
                    how = launcher.stop(run)
                    settle(run, False, None,
                           f"hung past the {deadline:.3g}s deadline ({how})",
                           "deadline")
    finally:
        # Only reached with attempts in flight when on_outcome (or an
        # interrupt) raised: stop them rather than leak children.
        for run in active:
            launcher.stop(run)
    return [outcome for outcome in outcomes if outcome is not None]
