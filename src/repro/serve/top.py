"""``borges top``: a live terminal view of a running serve process.

Polls the server's own public surfaces — ``/metrics`` (Prometheus text),
``/v1/admin/slo`` and ``/healthz`` — and renders a compact dashboard:
request rates per status code (computed as counter deltas between
polls), per-endpoint latency quantiles off the serve histograms,
admission-gate occupancy, SLO burn rates with firing/clear alert state,
and process gauges from the runtime sampler.  No dependencies beyond
stdlib: the Prometheus parser below understands exactly the exposition
format :mod:`repro.obs.prometheus` emits.

:func:`run_top` is the loop; ``iterations``/``stream`` parameters exist
so tests can drive one refresh into a buffer instead of a terminal.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple, Union
from urllib.error import URLError
from urllib.request import urlopen

LabelKey = Tuple[Tuple[str, str], ...]

#: ANSI "clear screen + home" used between refreshes.
CLEAR = "\x1b[2J\x1b[H"


def parse_prometheus_text(text: str) -> Dict[str, Dict[LabelKey, float]]:
    """Parse Prometheus text exposition into ``{name: {labels: value}}``.

    Minimal by design: handles the ``name{label="v",...} value`` and
    ``name value`` line forms our own renderer produces, skips comments
    and anything it cannot parse.  Histogram series arrive under their
    ``_bucket``/``_sum``/``_count`` suffixed names.
    """
    out: Dict[str, Dict[LabelKey, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            metric_part, value_part = line.rsplit(" ", 1)
            value = float(value_part)
        except ValueError:
            continue
        labels: List[Tuple[str, str]] = []
        name = metric_part
        if "{" in metric_part and metric_part.endswith("}"):
            name, _, label_blob = metric_part.partition("{")
            for pair in label_blob[:-1].split(","):
                if not pair:
                    continue
                key, _, raw = pair.partition("=")
                labels.append((key.strip(), raw.strip().strip('"')))
        out.setdefault(name, {})[tuple(sorted(labels))] = value
    return out


def _fetch(url: str, timeout: float = 2.0) -> str:
    with urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


class TopView:
    """One serve process's polled state and its rendered dashboard."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")
        self._previous: Optional[Dict[str, Dict[LabelKey, float]]] = None
        self._previous_at = 0.0

    # -- polling -----------------------------------------------------------

    def poll(self) -> Dict[str, object]:
        """One round of scrapes; returns the raw state for rendering."""
        state: Dict[str, object] = {"at": time.time(), "error": ""}
        try:
            metrics = parse_prometheus_text(
                _fetch(f"{self.base_url}/metrics")
            )
            state["metrics"] = metrics
        except (URLError, OSError, ValueError) as exc:
            state["error"] = f"cannot scrape {self.base_url}/metrics: {exc}"
            return state
        for key, path in (("slo", "/v1/admin/slo"), ("health", "/healthz")):
            try:
                state[key] = json.loads(_fetch(f"{self.base_url}{path}"))
            except (URLError, OSError, ValueError):
                state[key] = None  # endpoint absent or not ready: optional
        return state

    # -- rendering ---------------------------------------------------------

    def _rates(
        self, metrics: Dict[str, Dict[LabelKey, float]], elapsed: float
    ) -> List[str]:
        lines = []
        codes = metrics.get("serve_http_requests_total", {})
        if codes:
            total_rate = 0.0
            parts = []
            for labels, value in sorted(codes.items()):
                previous = 0.0
                if self._previous is not None:
                    previous = self._previous.get(
                        "serve_http_requests_total", {}
                    ).get(labels, 0.0)
                rate = max(0.0, value - previous) / elapsed if elapsed else 0.0
                total_rate += rate
                code = dict(labels).get("code", "?")
                parts.append(f"{code}:{rate:7.1f}/s")
            lines.append(f"  http  {total_rate:8.1f} req/s   " + "  ".join(parts))
        return lines

    @staticmethod
    def _slo_lines(slo: Optional[dict]) -> List[str]:
        if not slo:
            return ["  (no SLO tracker configured)"]
        lines = []
        for objective in ("availability", "latency"):
            section = slo.get(objective)
            if not isinstance(section, dict):
                continue
            windows = section.get("windows", {})
            fast = windows.get("fast", {})
            slow = windows.get("slow", {})
            alert = section.get("alert", {})
            marker = "FIRING" if alert.get("state") == "firing" else "clear "
            lines.append(
                f"  {objective:<13} burn fast {fast.get('burn_rate', 0):7.2f}"
                f"  slow {slow.get('burn_rate', 0):7.2f}"
                f"  good {fast.get('good_fraction', 1.0):.4f}"
                f"  [{marker}]"
            )
        return lines

    @staticmethod
    def _gauge_lines(metrics: Dict[str, Dict[LabelKey, float]]) -> List[str]:
        def scalar(name: str) -> float:
            series = metrics.get(name, {})
            return next(iter(series.values()), 0.0) if series else 0.0

        rss_mib = scalar("process_resident_memory_bytes") / (1 << 20)
        lines = [
            f"  rss {rss_mib:8.1f} MiB   threads {scalar('process_threads'):3.0f}"
            f"   generation {scalar('serve_snapshot_generation'):3.0f}"
        ]
        inflight = scalar("serve_admission_inflight")
        queued = scalar("serve_admission_queue_depth")
        shed = scalar("serve_admission_shed_total")
        lines.append(
            f"  admission  inflight {inflight:4.0f}  queued {queued:4.0f}"
            f"  shed(total) {shed:6.0f}"
        )
        return lines

    def render(self, state: Dict[str, object]) -> str:
        """The dashboard for one polled *state*, as a printable string."""
        at = state["at"]
        lines = [
            f"borges top — {self.base_url} — "
            f"{time.strftime('%H:%M:%S', time.localtime(at))}"  # type: ignore[arg-type]
        ]
        if state.get("error"):
            lines.append(f"  {state['error']}")
            return "\n".join(lines) + "\n"
        metrics = state["metrics"]  # type: ignore[assignment]
        elapsed = (
            at - self._previous_at if self._previous_at else 0.0
        )  # type: ignore[operator]
        health = state.get("health")
        if isinstance(health, dict):
            lines.append(
                f"  status {health.get('status', '?')}"
                f"   orgs {health.get('orgs', 0)}"
                f"   asns {health.get('asns', 0)}"
            )
            # Swap-health posture: a stale/degraded snapshot and how we
            # got here (failed swaps, rollbacks walked).
            flags = []
            if health.get("stale"):
                flags.append("STALE")
            if health.get("swap_failures"):
                flags.append(f"swap-failures {health['swap_failures']:.0f}")
            if health.get("rollback_count"):
                flags.append(f"rollbacks {health['rollback_count']:.0f}")
            flags.append(
                f"rollback-depth {health.get('rollback_generations', 0):.0f}"
            )
            lines.append("  swaps  " + "  ".join(flags))
            watch = health.get("watch")
            if isinstance(watch, dict):
                posture = "HALTED" if watch.get("halted") else (
                    "running" if watch.get("running") else "stopped"
                )
                lines.append(
                    f"  watch  {posture}"
                    f"   consecutive-failures "
                    f"{watch.get('consecutive_failures', 0):.0f}"
                )
                shards = watch.get("shard_posture")
                if isinstance(shards, dict):
                    failed = shards.get("failed") or []
                    lines.append(
                        f"  shards {shards.get('ok', 0):.0f}"
                        f"/{shards.get('shards', 0):.0f} ok"
                        f"   retries {shards.get('retries', 0):.0f}"
                        f"   resumed "
                        f"{len(shards.get('resumed') or [])}"
                        + (
                            f"   QUARANTINED {sorted(failed)}"
                            if failed
                            else ""
                        )
                    )
        lines.append("")
        lines.append("rates")
        lines.extend(
            self._rates(metrics, elapsed)  # type: ignore[arg-type]
            or ["  (no traffic yet)"]
        )
        lines.append("")
        lines.append("slo")
        lines.extend(self._slo_lines(state.get("slo")))  # type: ignore[arg-type]
        lines.append("")
        lines.append("process")
        lines.extend(self._gauge_lines(metrics))  # type: ignore[arg-type]
        self._previous = metrics  # type: ignore[assignment]
        self._previous_at = at  # type: ignore[assignment]
        return "\n".join(lines) + "\n"


class PoolTopView:
    """Per-worker dashboard for a :class:`~repro.serve.shm.pool.WorkerPool`.

    Reads the pool's state directory — ``pool.json`` for the supervisor
    posture and ``worker-N.json`` for each worker's pid and private
    admin port — then scrapes every worker's own ``/metrics``.  Rendered
    as one row per worker (pid, request rate from
    ``serve_http_requests_total`` deltas, admission in-flight) plus a
    machine-total line, which is the number the whole multi-worker tier
    exists to move.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self._previous: Dict[int, Tuple[float, float]] = {}  # worker → (total, at)

    def _read_json(self, name: str) -> Optional[dict]:
        try:
            document = json.loads(
                (self.state_dir / name).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        return document if isinstance(document, dict) else None

    def poll(self) -> Dict[str, object]:
        """Pool state + one ``/metrics`` scrape per live worker."""
        state: Dict[str, object] = {"at": time.time(), "error": ""}
        pool = self._read_json("pool.json")
        if pool is None:
            state["error"] = f"no pool state at {self.state_dir / 'pool.json'}"
            return state
        state["pool"] = pool
        workers: List[Dict[str, object]] = []
        for index in range(int(pool.get("workers", 0))):
            worker = self._read_json(f"worker-{index}.json") or {
                "worker": index
            }
            admin_port = worker.get("admin_port")
            if admin_port:
                host = str(pool.get("host", "127.0.0.1"))
                try:
                    worker["metrics"] = parse_prometheus_text(
                        _fetch(f"http://{host}:{admin_port}/metrics")
                    )
                except (URLError, OSError, ValueError) as exc:
                    worker["scrape_error"] = str(exc)
            workers.append(worker)
        state["workers"] = workers
        return state

    def render(self, state: Dict[str, object]) -> str:
        at = state["at"]
        lines = [
            f"borges top — pool {self.state_dir} — "
            f"{time.strftime('%H:%M:%S', time.localtime(at))}"  # type: ignore[arg-type]
        ]
        if state.get("error"):
            lines.append(f"  {state['error']}")
            return "\n".join(lines) + "\n"
        pool = state["pool"]  # type: ignore[assignment]
        lines.append(
            f"  supervisor pid {pool.get('supervisor_pid', '?')}"  # type: ignore[union-attr]
            f"   {pool.get('host')}:{pool.get('port')}"  # type: ignore[union-attr]
            f"   respawns {pool.get('respawns', 0)}"  # type: ignore[union-attr]
        )
        lines.append("")
        lines.append(
            "  worker      pid       rps   in-flight"
        )
        total_rate = 0.0
        for worker in state.get("workers", []):  # type: ignore[union-attr]
            index = int(worker.get("worker", -1))
            metrics = worker.get("metrics")
            if not isinstance(metrics, dict):
                reason = worker.get("scrape_error", "no state file")
                lines.append(f"  {index:>6}        —         —   ({reason})")
                continue
            requests = sum(
                metrics.get("serve_http_requests_total", {}).values()
            )
            previous_total, previous_at = self._previous.get(
                index, (requests, 0.0)
            )
            elapsed = at - previous_at if previous_at else 0.0  # type: ignore[operator]
            rate = (
                max(0.0, requests - previous_total) / elapsed
                if elapsed
                else 0.0
            )
            self._previous[index] = (requests, at)  # type: ignore[assignment]
            total_rate += rate
            inflight_series = metrics.get("serve_admission_inflight", {})
            inflight = next(iter(inflight_series.values()), 0.0)
            lines.append(
                f"  {index:>6}  {worker.get('pid', 0):>7}"
                f"  {rate:8.1f}   {inflight:9.0f}"
            )
        lines.append(f"  total        {total_rate:14.1f} req/s (machine)")
        return "\n".join(lines) + "\n"


def run_top(
    host: str = "127.0.0.1",
    port: int = 8080,
    interval: float = 2.0,
    iterations: int = 0,
    clear: bool = True,
    stream: Optional[TextIO] = None,
    pool: Optional[Union[str, Path]] = None,
) -> int:
    """Poll and render until interrupted (or *iterations* refreshes).

    ``iterations=0`` means forever; tests pass a finite count and a
    ``stream`` buffer.  Returns a process exit code: 1 when the first
    poll cannot reach the server at all (one-line diagnosis, no
    dashboard), 0 otherwise.  Scrape failures *after* a successful first
    poll render inline instead — a restarting server is worth watching.

    With *pool* set to a :class:`~repro.serve.shm.pool.WorkerPool` state
    directory the dashboard switches to the per-worker view
    (:class:`PoolTopView`) and ``host``/``port`` are ignored.
    """
    out = stream if stream is not None else sys.stdout
    if pool is not None:
        view: Union[TopView, PoolTopView] = PoolTopView(pool)
        unreachable = f"no worker pool at {pool}"
    else:
        view = TopView(f"http://{host}:{port}")
        unreachable = f"server unreachable at {host}:{port}"
    count = 0
    try:
        while True:
            state = view.poll()
            if count == 0 and state.get("error"):
                out.write(unreachable + "\n")
                out.flush()
                return 1
            rendered = view.render(state)
            if clear:
                out.write(CLEAR)
            out.write(rendered)
            out.flush()
            count += 1
            if iterations and count >= iterations:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
