"""WorkerPool: N forked query servers over one shared snapshot mapping.

The single-process serve tier tops out at one GIL's worth of lookups.
:class:`WorkerPool` breaks that ceiling without giving up any snapshot
semantics: the supervisor writes each generation's index blob as a
segment (one physical copy under ``/dev/shm``), and forks N worker processes
that ``mmap`` it read-only and serve the full HTTP API behind
``SO_REUSEPORT`` — the kernel load-balances accepted connections across
workers, so clients see one host:port with N processes behind it.

**Hot-swap fence.**  ``publish(blob)`` writes the new segment, then
atomically renames the generation pointer (the fence — see
:mod:`.segment`), then waits for every worker's state file to ack the
new generation before unlinking the replaced segment.  Workers that
were killed mid-swap are respawned by the monitor thread and come up
*on the current pointer*, so the fence converges even under churn;
POSIX keeps already-mapped old segments valid for workers still
draining or holding rollback history.

**Per-worker semantics.**  Each worker owns a private
:class:`~repro.serve.store.SnapshotStore` (rollback history, stale
accounting, quarantine) and :class:`~repro.obs.MetricsRegistry`, plus
an admin HTTP server on an ephemeral port for per-worker ``/metrics``
(``borges top --pool`` aggregates these).  Worker generation numbers
are aligned to the pool pointer via
:meth:`~repro.serve.store.SnapshotStore.advance_generation`, so a
respawned worker reports the same generation as its siblings.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ...errors import ServeError
from ...obs import MetricsRegistry, get_event_log
from ..store import DEFAULT_HISTORY_LIMIT, SnapshotStore
from .segment import MappedBlob, SegmentStore, default_shm_root

#: Fork start method: workers inherit the compiled blob path and config
#: by memory.
_MP = multiprocessing.get_context("fork")

#: Supervisor state file other tools (``borges top --pool``) read.
POOL_STATE_NAME = "pool.json"


@dataclass(frozen=True)
class WorkerConfig:
    """Knobs shared by the supervisor and every worker it forks."""

    host: str = "127.0.0.1"
    #: Shared listen port; 0 lets the supervisor reserve an ephemeral one.
    port: int = 0
    workers: int = 2
    #: Seconds between a worker's generation-pointer polls.
    poll_interval: float = 0.05
    #: Per-worker rollback history depth (mirrors the single-process tier).
    history_limit: int = DEFAULT_HISTORY_LIMIT
    #: Per-worker admission gate; 0 disables it.
    max_inflight: int = 0
    max_queue: int = 128
    deadline: float = 1.0
    #: How long ``publish`` waits for every worker to ack a generation.
    swap_timeout: float = 15.0
    #: Minimum gap between respawns of the same worker index (crash-loop
    #: damping, not a rate limiter).
    respawn_backoff: float = 0.25


def _worker_main(
    config: WorkerConfig, worker_index: int, root: str, port: int
) -> None:
    """One forked query worker: map the pointer, serve, follow swaps."""
    # Imported here, not at module top: the parent imports this module
    # long before forking, so these are warm; keeping them out of the
    # module namespace documents that only workers need the serve stack.
    from ..admission import AdmissionController, AdmissionLimits
    from ..httpd import QueryServer
    from ..service import QueryService

    segments = SegmentStore(root)
    registry = MetricsRegistry()
    store = SnapshotStore(
        registry=registry, history_limit=config.history_limit
    )
    admission = None
    if config.max_inflight:
        limits = AdmissionLimits(
            max_inflight=config.max_inflight,
            max_queue=config.max_queue,
            default_deadline=config.deadline,
        ).validate()
        admission = AdmissionController(limits, registry=registry)
    service = QueryService(store=store, registry=registry, admission=admission)
    registry.gauge(
        "serve_worker_index", "This process's index within the pool"
    ).set(worker_index)

    # Mapped segments this worker still references: the active one, any
    # retiring one, and the rollback history.  Sized so nothing a local
    # rollback could restore is ever closed; evicted mappings are closed
    # explicitly (the files themselves may be long unlinked).
    mapped: "OrderedDict[int, MappedBlob]" = OrderedDict()
    applied = 0

    def _swap_to(generation: int):
        blob = segments.map_generation(generation)
        store.advance_generation(generation)
        snapshot = store.swap(
            blob.index, source="pool", label=f"segment generation {generation}"
        )
        mapped[generation] = blob
        while len(mapped) > config.history_limit + 2:
            _, evicted = mapped.popitem(last=False)
            evicted.close()
        return snapshot

    # First generation: the supervisor publishes before forking, so the
    # pointer is normally already there; a short wait covers races.
    deadline = time.monotonic() + config.swap_timeout
    pointer = segments.pointer()
    while pointer is None and time.monotonic() < deadline:
        time.sleep(config.poll_interval)
        pointer = segments.pointer()
    if pointer is None:
        get_event_log().emit(
            "pool.worker_exit",
            severity="error",
            worker=worker_index,
            reason="no generation pointer",
        )
        os._exit(3)
    _swap_to(int(pointer["generation"]))
    applied = int(pointer["generation"])

    server = QueryServer(
        service, host=config.host, port=port, reuse_port=True
    ).start()
    admin = QueryServer(service, host=config.host, port=0).start()

    state_path = segments.root / f"worker-{worker_index}.json"

    def _write_state() -> None:
        segments._atomic_write(
            state_path,
            json.dumps(
                {
                    "worker": worker_index,
                    "pid": os.getpid(),
                    "port": server.port,
                    "admin_port": admin.port,
                    "generation": applied,
                    "serving_generation": store.current().generation,
                    "updated_unix": round(time.time(), 3),
                },
                sort_keys=True,
            ).encode("utf-8"),
        )

    _write_state()
    get_event_log().emit(
        "pool.worker_ready",
        worker=worker_index,
        pid=os.getpid(),
        generation=applied,
        port=server.port,
        admin_port=admin.port,
    )

    stopping = threading.Event()

    def _terminate(signum: int, frame: object) -> None:
        stopping.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    supervisor = os.getppid()
    while not stopping.is_set():
        stopping.wait(config.poll_interval)
        if os.getppid() != supervisor:
            # The supervisor died; exit rather than squat on the port.
            get_event_log().emit(
                "pool.worker_exit",
                severity="warning",
                worker=worker_index,
                reason="supervisor gone",
            )
            break
        pointer = segments.pointer()
        if pointer is None:
            continue
        generation = int(pointer.get("generation", 0))
        if generation <= applied:
            continue
        # try_swap gives a failed remap (torn read mid-publish, corrupt
        # segment) the same keep-serving/stale semantics as every other
        # snapshot source; the next poll retries.
        if store.try_swap(
            lambda: _swap_to(generation), label=f"segment {generation}"
        ) is not None:
            applied = generation
            _write_state()

    server.stop()
    admin.stop()
    for blob in mapped.values():
        blob.close()
    try:
        state_path.unlink()
    except OSError:
        pass


class WorkerPool:
    """Supervise N forked query workers over one segment store.

    Lifecycle: ``start(blob)`` reserves the shared port, publishes the
    first generation, forks the workers and waits until every one acks
    it; ``publish(blob)`` hot-swaps all workers through the pointer
    fence; ``stop()`` tears everything down and removes the state
    directory.  A monitor thread respawns any worker that dies —
    respawned workers come up on the *current* pointer generation.
    """

    def __init__(
        self,
        config: Optional[WorkerConfig] = None,
        state_dir: Optional[Path] = None,
    ) -> None:
        self.config = config or WorkerConfig()
        if self.config.workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        root = Path(
            state_dir
            if state_dir is not None
            else default_shm_root() / f"borges-pool-{os.getpid()}"
        )
        self.segments = SegmentStore(root)
        self.generation = 0
        self.respawns = 0
        self._reserve = None
        self._port = 0
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._last_respawn: List[float] = []
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._publish_lock = threading.Lock()

    # -- addressing --------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def state_dir(self) -> Path:
        return self.segments.root

    def _reserve_port(self) -> None:
        """Hold the shared port with a bound, *non-listening* socket.

        Every member of an ``SO_REUSEPORT`` group must set the option
        before bind; a bound socket that never listens joins the group
        (keeping the port number stable across full worker churn) but
        receives no connections.
        """
        import socket as socket_module

        sock = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        if hasattr(socket_module, "SO_REUSEPORT"):
            sock.setsockopt(
                socket_module.SOL_SOCKET, socket_module.SO_REUSEPORT, 1
            )
        sock.bind((self.config.host, self.config.port))
        self._reserve = sock
        self._port = sock.getsockname()[1]

    # -- worker state ------------------------------------------------------

    def worker_state(self, index: int) -> Optional[Dict[str, object]]:
        """One worker's last state-file write, or ``None``."""
        path = self.segments.root / f"worker-{index}.json"
        try:
            state = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return state if isinstance(state, dict) else None

    def worker_states(self) -> List[Optional[Dict[str, object]]]:
        return [self.worker_state(i) for i in range(self.config.workers)]

    def worker_pids(self) -> List[int]:
        return [
            proc.pid if proc is not None and proc.pid is not None else 0
            for proc in self._procs
        ]

    def _write_pool_state(self) -> None:
        self.segments._atomic_write(
            self.segments.root / POOL_STATE_NAME,
            json.dumps(
                {
                    "supervisor_pid": os.getpid(),
                    "host": self.host,
                    "port": self._port,
                    "workers": self.config.workers,
                    "generation": self.generation,
                    "worker_pids": self.worker_pids(),
                    "respawns": self.respawns,
                    "state_dir": str(self.segments.root),
                    "updated_unix": round(time.time(), 3),
                },
                sort_keys=True,
            ).encode("utf-8"),
        )

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, index: int) -> multiprocessing.Process:
        proc = _MP.Process(
            target=_worker_main,
            args=(self.config, index, str(self.segments.root), self._port),
            daemon=True,
            name=f"borges-worker-{index}",
        )
        proc.start()
        return proc

    def start(self, blob: bytes) -> "WorkerPool":
        """Publish *blob* as generation 1, fork workers, await readiness."""
        if self._procs:
            raise ServeError("worker pool already started")
        self._reserve_port()
        self.generation = 1
        self.segments.write_segment(1, blob)
        self.segments.set_pointer(1, workers=self.config.workers)
        self._procs = [self._spawn(i) for i in range(self.config.workers)]
        self._last_respawn = [time.monotonic()] * self.config.workers
        self._write_pool_state()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="borges-pool-monitor", daemon=True
        )
        self._monitor.start()
        self._await_generation(1)
        get_event_log().emit(
            "pool.start",
            workers=self.config.workers,
            url=self.url,
            blob_bytes=len(blob),
        )
        return self

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            self._stopping.wait(0.1)
            if self._stopping.is_set():
                return
            changed = False
            for index, proc in enumerate(self._procs):
                if proc is None or proc.is_alive():
                    continue
                now = time.monotonic()
                if now - self._last_respawn[index] < self.config.respawn_backoff:
                    continue
                get_event_log().emit(
                    "pool.respawn",
                    severity="warning",
                    worker=index,
                    pid=proc.pid,
                    exitcode=proc.exitcode,
                )
                proc.join()
                self._procs[index] = self._spawn(index)
                self._last_respawn[index] = now
                self.respawns += 1
                changed = True
            if changed:
                self._write_pool_state()

    def _await_generation(self, generation: int) -> None:
        """Block until every worker acks *generation* (or later).

        An ack is a worker state file whose ``generation`` is current
        *and* whose pid matches a live worker — a stale file left by a
        killed process does not count.  The monitor thread keeps
        respawning the dead onto the current pointer, so this converges
        under churn.
        """
        deadline = time.monotonic() + self.config.swap_timeout
        while time.monotonic() < deadline:
            live = {
                proc.pid
                for proc in self._procs
                if proc is not None and proc.is_alive()
            }
            states = self.worker_states()
            acked = sum(
                1
                for state in states
                if state is not None
                and int(state.get("generation", 0)) >= generation
                and state.get("pid") in live
            )
            if acked >= self.config.workers:
                return
            time.sleep(0.02)
        raise ServeError(
            f"workers did not converge on generation {generation} within "
            f"{self.config.swap_timeout:.1f}s"
        )

    def publish(self, blob: bytes) -> int:
        """Hot-swap every worker to *blob*; returns the new generation.

        Fence ordering: segment write (fsync+rename) → pointer rename →
        all-workers ack → old segment unlink.  Workers still mapping the
        old segment (draining requests, rollback history) are unaffected
        by the unlink; the *file* disappears so nothing new maps it.
        """
        with self._publish_lock:
            if not self._procs:
                raise ServeError("worker pool is not running")
            previous = self.generation
            generation = previous + 1
            self.segments.write_segment(generation, blob)
            self.segments.set_pointer(
                generation, workers=self.config.workers
            )
            self.generation = generation
            self._await_generation(generation)
            self.segments.unlink_segment(previous)
            self._write_pool_state()
            get_event_log().emit(
                "pool.publish", generation=generation, blob_bytes=len(blob)
            )
            return generation

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Hard-kill one worker (churn tests); returns the old pid."""
        proc = self._procs[index]
        if proc is None or proc.pid is None:
            raise ServeError(f"worker {index} is not running")
        pid = proc.pid
        os.kill(pid, sig)
        proc.join(5.0)
        return pid

    def stop(self, timeout: float = 5.0) -> None:
        """Terminate workers, remove segments/pointer/state, free the port."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
            self._monitor = None
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        self._procs = []
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        self.segments.cleanup()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- foreground mode (CLI) --------------------------------------------

    def serve_until_interrupt(self) -> None:
        """Block until SIGINT/SIGTERM, then stop the pool."""
        interrupted = threading.Event()

        def _interrupt(signum: int, frame: object) -> None:
            interrupted.set()

        previous = {
            sig: signal.signal(sig, _interrupt)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            while not interrupted.is_set():
                interrupted.wait(0.5)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()
