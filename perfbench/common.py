"""Shared plumbing for the benchmark: spans, statistics, inputs, facts.

Nothing here imports the program at module load; :func:`bootstrap` puts
the checkout's own ``src/`` first on ``sys.path`` and refuses to run
against any other copy of the ``repro`` package.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their span dumps, and where temp dirs live.
OUT_DIR = ROOT / ".bench_out"

#: Client threads and keep-alive connections: one per core on the 2-core
#: reference host, so the load never outnumbers the cores it shares.
CLIENT_CONNECTIONS = 2
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {src}")


# -- spans ---------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    Each span keeps name, start, end, its parent's id and attributes.
    Spans opened on a thread nest under that thread's open span; a
    thread started inside a span passes it as *parent* explicitly.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs: object):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record: Dict[str, object] = {
            "id": span_id,
            "name": name,
            "parent": parent if parent is not None else (stack[-1] if stack else None),
            "attrs": attrs,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(record)

    def durations(self, name: str) -> List[float]:
        return [
            float(r["end"]) - float(r["start"])
            for r in self.records
            if r["name"] == name
        ]

    def median(self, name: str) -> Optional[float]:
        values = self.durations(name)
        return statistics.median(values) if values else None

    def total(self, name: str) -> float:
        return sum(self.durations(name))


class NoSpans:
    """The untraced stand-in: every span is a no-op."""

    enabled = False
    current = None

    def span(self, name: str, parent: Optional[int] = None, **attrs: object):
        return nullcontext({})


# -- host speed ----------------------------------------------------------------

#: Seconds :func:`host_probe` takes on the reference host (a quiet 2-vCPU
#: VM, CPython 3.11).
PROBE_REFERENCE_S = 0.05

_PROBE_WORDS = re.compile(r"[a-z]+[0-9]*")


def host_probe() -> float:
    """Seconds a fixed pure-Python job takes now: dicts, sets, strings,
    regex, sorting and JSON over a few MB, the operations and working-set
    size the program's own time goes to.  The collector is off while it
    runs, so the probe times the host, not this process's heap."""
    gc.disable()
    try:
        return _probe_job()
    finally:
        gc.enable()


def _probe_job() -> float:
    started = time.perf_counter()
    table: Dict[str, List[tuple]] = {}
    for i in range(20_000):
        key = f"as{(i * 7919) % 8_009}"
        table.setdefault(key, []).append((i, key.upper()))
    groups = {k: frozenset(i for i, _ in rows) for k, rows in table.items()}
    ordered = sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
    text = json.dumps([[k, sorted(v)] for k, v in ordered])
    words = _PROBE_WORDS.findall(text)
    json.loads(text)
    len(set(words))
    return time.perf_counter() - started


class HostSpeed:
    """Probe samples a run takes between its operations, never inside one.

    This VM's speed drifts by tens of percent within minutes (other
    tenants).  ``factor`` goes into ``facts``, so a slow host shows next
    to the numbers it slowed; the metrics themselves are raw.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 2) -> None:
        self.samples.extend(host_probe() for _ in range(n))

    @property
    def factor(self) -> float:
        """Median probe time over the reference: above 1 is slower."""
        return median_of(self.samples) / PROBE_REFERENCE_S


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def median_of(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return statistics.median(values)


# -- inputs --------------------------------------------------------------------


def generate_inputs(seed: int, orgs: Optional[int] = None):
    """One universe for *seed*: (universe, pickled datasets, seconds).

    The WHOIS dataset, PeeringDB snapshot and simulated web are pickled
    before any digest is taken, so every :func:`fresh_datasets` copy is
    input the program has never digested (the web memoises its digest).
    """
    import dataclasses

    from repro.config import UniverseConfig
    from repro.universe import generate_universe

    config = UniverseConfig(seed=seed)
    if orgs is not None:
        config = dataclasses.replace(config, n_organizations=orgs)
    started = time.perf_counter()
    universe = generate_universe(config.validate())
    elapsed = time.perf_counter() - started
    blob = pickle.dumps(
        (universe.whois, universe.pdb, universe.web),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return universe, blob, elapsed


def fresh_datasets(blob: bytes):
    """A new (whois, pdb, web) triple from the pickled inputs."""
    return pickle.loads(blob)


def mapping_digest(mapping) -> str:
    from repro.digest import stable_digest

    return stable_digest(mapping.to_json())


def theta_of(mapping) -> float:
    from repro.metrics.org_factor import org_factor

    return org_factor(mapping.sizes())


# -- process facts ---------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_facts(workload: str, seed: int, **extra: object) -> Dict[str, object]:
    facts: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "client_connections": CLIENT_CONNECTIONS,
    }
    facts.update(extra)
    return facts


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A temp dir inside the checkout, removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def write_trace(name: str, document: Dict[str, object]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-trace.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True, default=str))
    return path


class Outcome:
    """Operations attempted and failed, plus wrong-answer findings.

    A failed operation is an error response or a wrong answer; a wrong
    answer (or any broken invariant) also makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()

    @property
    def correct(self) -> bool:
        return not self.violations

    def op(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(reason)
        return ok

    def absorb(self, other: "Outcome") -> None:
        """Count another pass's operations and findings as this run's."""
        with self._lock:
            self.attempted += other.attempted
            self.failed += other.failed
            self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])
        for reason in other.violations:
            self.wrong(reason)

    def wrong(self, reason: str) -> None:
        with self._lock:
            if len(self.violations) < 20:
                self.violations.append(reason)
            else:
                self.violations[-1] = f"... and more: {reason}"
