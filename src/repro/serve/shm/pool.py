"""WorkerPool: N forked query servers over one shared snapshot mapping.

The single-process serve tier tops out at one GIL's worth of lookups.
:class:`WorkerPool` breaks that ceiling: the supervisor writes the index
blob once as a segment file (one physical copy under ``/dev/shm``), and
forks N worker processes that ``mmap`` it read-only and serve the full
HTTP API behind ``SO_REUSEPORT`` — the kernel load-balances accepted
connections across workers, so clients see one host:port with N
processes behind it.

**One generation.**  A pool serves exactly the blob it was started
with; it has no hot-swap path of its own.  The segment stays on disk
until :meth:`WorkerPool.stop`, so a worker that dies is respawned by the
monitor thread onto the same bytes its siblings serve.

**Per-worker semantics.**  Each worker owns a private
:class:`~repro.serve.store.SnapshotStore` and
:class:`~repro.obs.MetricsRegistry`, plus an admin HTTP server on an
ephemeral port for per-worker ``/metrics`` (``borges top --pool``
aggregates these).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ...errors import ServeError
from ...obs import MetricsRegistry, get_event_log
from ..store import SnapshotStore
from .blob import BLOB_SUFFIX
from .segment import default_shm_root, map_blob_file

#: Fork start method: workers inherit the segment path and config by
#: memory.
_MP = multiprocessing.get_context("fork")

#: The one blob segment every worker maps.
SEGMENT_NAME = "snapshot" + BLOB_SUFFIX

#: Supervisor state file other tools (``borges top --pool``) read.
POOL_STATE_NAME = "pool.json"


def _atomic_write(target: Path, data: bytes) -> None:
    """Write via temp file + fsync + rename: readers never see it torn."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)


@dataclass(frozen=True)
class WorkerConfig:
    """Knobs shared by the supervisor and every worker it forks."""

    host: str = "127.0.0.1"
    #: Shared listen port; 0 lets the supervisor reserve an ephemeral one.
    port: int = 0
    workers: int = 2
    #: Seconds between a worker's supervisor-liveness checks.
    poll_interval: float = 0.05
    #: Per-worker admission gate; 0 disables it.
    max_inflight: int = 0
    max_queue: int = 128
    deadline: float = 1.0
    #: How long ``start`` / ``wait_ready`` wait for every worker.
    start_timeout: float = 15.0
    #: Minimum gap between respawns of the same worker index (crash-loop
    #: damping, not a rate limiter).
    respawn_backoff: float = 0.25


def _worker_main(
    config: WorkerConfig, worker_index: int, segment: str, port: int
) -> None:
    """One forked query worker: map the segment and serve it."""
    # Imported here, not at module top: the parent imports this module
    # long before forking, so these are warm; keeping them out of the
    # module namespace documents that only workers need the serve stack.
    from ..admission import AdmissionController, AdmissionLimits
    from ..httpd import QueryServer
    from ..service import QueryService

    registry = MetricsRegistry()
    store = SnapshotStore(registry=registry)
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
    store.swap(map_blob_file(segment), source="pool", label=segment)

    server = QueryServer(
        service, host=config.host, port=port, reuse_port=True
    ).start()
    admin = QueryServer(service, host=config.host, port=0).start()

    state_path = Path(segment).parent / f"worker-{worker_index}.json"
    _atomic_write(
        state_path,
        json.dumps(
            {
                "worker": worker_index,
                "pid": os.getpid(),
                "port": server.port,
                "admin_port": admin.port,
                "updated_unix": round(time.time(), 3),
            },
            sort_keys=True,
        ).encode("utf-8"),
    )
    get_event_log().emit(
        "pool.worker_ready",
        worker=worker_index,
        pid=os.getpid(),
        port=server.port,
        admin_port=admin.port,
    )

    stopping = threading.Event()

    def _terminate(signum: int, frame: object) -> None:
        stopping.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    supervisor = os.getppid()
    while not stopping.wait(config.poll_interval):
        if os.getppid() != supervisor:
            # The supervisor died; exit rather than squat on the port.
            get_event_log().emit(
                "pool.worker_exit",
                severity="warning",
                worker=worker_index,
                reason="supervisor gone",
            )
            break

    server.stop()
    admin.stop()
    try:
        state_path.unlink()
    except OSError:
        pass


class WorkerPool:
    """Supervise N forked query workers over one blob segment.

    Lifecycle: ``start(blob)`` reserves the shared port, writes the
    segment, forks the workers and waits until every one is ready;
    ``stop()`` tears everything down and removes the state directory.
    A monitor thread respawns any worker that dies onto the same
    segment.
    """

    def __init__(
        self,
        config: Optional[WorkerConfig] = None,
        state_dir: Optional[Path] = None,
    ) -> None:
        self.config = config or WorkerConfig()
        if self.config.workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._root = Path(
            state_dir
            if state_dir is not None
            else default_shm_root() / f"borges-pool-{os.getpid()}"
        )
        self._root.mkdir(parents=True, exist_ok=True)
        self._segment = self._root / SEGMENT_NAME
        self.respawns = 0
        self._reserve = None
        self._port = 0
        self._procs: List[Optional[multiprocessing.Process]] = []
        self._last_respawn: List[float] = []
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()

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
        return self._root

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
        """One worker's state file, or ``None``."""
        path = self._root / f"worker-{index}.json"
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
        _atomic_write(
            self._root / POOL_STATE_NAME,
            json.dumps(
                {
                    "supervisor_pid": os.getpid(),
                    "host": self.host,
                    "port": self._port,
                    "workers": self.config.workers,
                    "worker_pids": self.worker_pids(),
                    "respawns": self.respawns,
                    "state_dir": str(self._root),
                    "updated_unix": round(time.time(), 3),
                },
                sort_keys=True,
            ).encode("utf-8"),
        )

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, index: int) -> multiprocessing.Process:
        proc = _MP.Process(
            target=_worker_main,
            args=(self.config, index, str(self._segment), self._port),
            daemon=True,
            name=f"borges-worker-{index}",
        )
        proc.start()
        return proc

    def start(self, blob: bytes) -> "WorkerPool":
        """Write *blob* as the segment, fork workers, await readiness."""
        if self._procs:
            raise ServeError("worker pool already started")
        self._reserve_port()
        _atomic_write(self._segment, blob)
        self._procs = [self._spawn(i) for i in range(self.config.workers)]
        self._last_respawn = [time.monotonic()] * self.config.workers
        self._write_pool_state()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="borges-pool-monitor", daemon=True
        )
        self._monitor.start()
        self.wait_ready()
        get_event_log().emit(
            "pool.start",
            workers=self.config.workers,
            url=self.url,
            blob_bytes=len(blob),
        )
        return self

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.1):
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

    def wait_ready(self) -> None:
        """Block until every worker is serving.

        A worker is ready when its state file names the pid of a live
        worker — a stale file left by a killed process does not count.
        The monitor thread keeps respawning the dead, so this converges
        under churn.
        """
        deadline = time.monotonic() + self.config.start_timeout
        while time.monotonic() < deadline:
            live = {
                proc.pid
                for proc in self._procs
                if proc is not None and proc.is_alive()
            }
            ready = sum(
                1
                for state in self.worker_states()
                if state is not None and state.get("pid") in live
            )
            if ready >= self.config.workers:
                return
            time.sleep(0.02)
        raise ServeError(
            f"workers were not ready within {self.config.start_timeout:.1f}s"
        )

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
        """Terminate workers, free the port, remove the state directory."""
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
        for path in list(self._root.iterdir()):
            if (
                path == self._segment
                or path.name == POOL_STATE_NAME
                or path.name.endswith(".tmp")
                or path.name.startswith("worker-")
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
        try:
            self._root.rmdir()
        except OSError:
            pass  # non-empty (operator files) or already gone

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
