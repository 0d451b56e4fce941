"""SLO engine: rolling-window objectives, burn-rate alerts, exemplars.

The serve tier's "are we OK right now?" answer, in three parts:

* :class:`SLOTracker` — availability ("what fraction of requests got a
  real answer?") and latency ("what fraction finished under the
  threshold?") objectives, each measured over a **fast** (default 5 min)
  and a **slow** (default 1 h) rolling window.  The alerting signal is
  the *burn rate*: ``(bad fraction) / (1 − objective)`` — a burn rate of
  1.0 spends the error budget exactly at the sustainable pace, 14.4
  spends a 30-day budget in ~2 days.  An alert **fires** when *both*
  windows burn at or above the threshold (the slow window proves the
  problem is real, the fast window proves it is current) and **clears**
  when the fast window drops back below it — the standard multi-window
  construction, which pages fast on real incidents and un-pages fast
  after recovery without flapping on blips.
* :class:`ExemplarStore` — a bounded ring of slow-request exemplars:
  when a request finishes over the threshold, its trace ID, endpoint,
  status and full span tree are retained, so "the p99 got worse" comes
  with concrete requests to look at (``GET /v1/admin/exemplars``).
* :class:`RuntimeSampler` — a background thread sampling process gauges
  (RSS, thread count, GC collections, admission-queue occupancy) into
  the metrics registry, because "the SLO degraded" usually correlates
  with one of them.

Everything takes an explicit ``now`` so tests drive window boundaries
without sleeping, and every hot-path operation (``record``) is a lock
acquire plus a handful of integer writes.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from .process import peak_rss_bytes
from .registry import MetricsRegistry, get_registry

#: Default burn-rate threshold: a 30-day error budget consumed in ~2 days.
DEFAULT_BURN_RATE_THRESHOLD = 14.4

#: Default slow-request threshold for exemplar capture (seconds).
DEFAULT_EXEMPLAR_THRESHOLD = 0.050


@dataclass(frozen=True)
class SLOConfig:
    """Objectives and window sizing for one service's SLOs."""

    #: Fraction of requests that must receive a real answer (2xx/404).
    availability_objective: float = 0.999
    #: Fraction of requests that must finish under ``latency_threshold``.
    latency_objective: float = 0.99
    #: Seconds; a request slower than this counts against the latency SLO.
    latency_threshold: float = 0.100
    fast_window_seconds: float = 300.0
    slow_window_seconds: float = 3600.0
    burn_rate_threshold: float = DEFAULT_BURN_RATE_THRESHOLD

    def validate(self) -> "SLOConfig":
        for name in ("availability_objective", "latency_objective"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1): {value}")
        if self.latency_threshold <= 0:
            raise ConfigError(
                f"latency_threshold must be positive: {self.latency_threshold}"
            )
        if self.fast_window_seconds <= 0 or self.slow_window_seconds <= 0:
            raise ConfigError("SLO windows must be positive")
        if self.fast_window_seconds > self.slow_window_seconds:
            raise ConfigError(
                "fast window must not exceed the slow window: "
                f"{self.fast_window_seconds} > {self.slow_window_seconds}"
            )
        if self.burn_rate_threshold <= 0:
            raise ConfigError(
                f"burn_rate_threshold must be positive: "
                f"{self.burn_rate_threshold}"
            )
        return self


class _RollingWindow:
    """Fixed-span rolling counts over a ring of time buckets.

    The ring holds ``buckets`` slots of ``seconds / buckets`` each; a
    slot is lazily zeroed when its wall-clock bucket index moves on, so
    there is no timer thread and an idle window decays to empty for
    free.  Not thread-safe on its own — the tracker's lock guards it.
    """

    __slots__ = (
        "span",
        "buckets",
        "_ids",
        "_total",
        "_bad",
        "_slow",
        "_cached_id",
        "_cached_index",
    )

    def __init__(self, seconds: float, buckets: int = 60) -> None:
        self.buckets = max(1, int(buckets))
        self.span = float(seconds) / self.buckets
        self._ids: List[int] = [-1] * self.buckets
        self._total = [0] * self.buckets
        self._bad = [0] * self.buckets
        self._slow = [0] * self.buckets
        # Consecutive requests nearly always land in the same bucket, so
        # the slot lookup is cached and revalidated by bucket id.
        self._cached_id = -1
        self._cached_index = 0

    def record(self, now: float, ok: bool, slow: bool) -> None:
        # Hot path: called once per served request (under the tracker's
        # lock), so the slot logic is inlined rather than factored out.
        bucket_id = int(now / self.span)
        if bucket_id != self._cached_id:
            index = bucket_id % self.buckets
            self._cached_id = bucket_id
            self._cached_index = index
            if self._ids[index] != bucket_id:
                self._ids[index] = bucket_id
                self._total[index] = 1
                self._bad[index] = 0 if ok else 1
                self._slow[index] = 1 if slow else 0
                return
        else:
            index = self._cached_index
        self._total[index] += 1
        if not ok:
            self._bad[index] += 1
        if slow:
            self._slow[index] += 1

    def totals(self, now: float) -> Dict[str, int]:
        """``{"total", "bad", "slow"}`` over the live part of the window."""
        current = int(now / self.span)
        oldest = current - self.buckets + 1
        total = bad = slow = 0
        for index in range(self.buckets):
            bucket_id = self._ids[index]
            if oldest <= bucket_id <= current:
                total += self._total[index]
                bad += self._bad[index]
                slow += self._slow[index]
        return {"total": total, "bad": bad, "slow": slow}


class _AlertState:
    """Firing/clear latch for one objective."""

    __slots__ = ("name", "firing", "since", "transitions")

    def __init__(self, name: str) -> None:
        self.name = name
        self.firing = False
        self.since = 0.0
        self.transitions = 0

    def update(self, fire: bool, clear: bool, now: float) -> None:
        if not self.firing and fire:
            self.firing = True
            self.since = now
            self.transitions += 1
        elif self.firing and clear:
            self.firing = False
            self.since = now
            self.transitions += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "state": "firing" if self.firing else "clear",
            "since": round(self.since, 3),
            "transitions": self.transitions,
        }


class SLOTracker:
    """Feed request outcomes in; read burn rates and alert states out."""

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = (config or SLOConfig()).validate()
        self._registry = registry or get_registry()
        self._lock = threading.Lock()
        #: Cached for the per-request hot path in :meth:`record`.
        self._latency_threshold = self.config.latency_threshold
        self._fast = _RollingWindow(self.config.fast_window_seconds)
        self._slow = _RollingWindow(self.config.slow_window_seconds)
        self._alerts = {
            "availability": _AlertState("availability"),
            "latency": _AlertState("latency"),
        }
        # Cumulative tallies are plain ints bumped under the lock; the
        # Prometheus counters are synced from them at snapshot time so
        # the per-request path pays integer adds, not three method calls.
        self._n_total = 0
        self._n_bad = 0
        self._n_slow = 0
        self._total = self._registry.counter(
            "slo_requests_total", "Requests observed by the SLO tracker"
        )
        self._bad = self._registry.counter(
            "slo_errors_total", "Requests counted against availability"
        )
        self._slow_counter = self._registry.counter(
            "slo_slow_requests_total",
            "Requests over the latency threshold",
        )
        self._burn_gauges = {
            (slo, window): self._registry.gauge(
                "slo_burn_rate",
                "Error-budget burn rate per objective and window",
                slo=slo,
                window=window,
            )
            for slo in ("availability", "latency")
            for window in ("fast", "slow")
        }
        self._firing_gauges = {
            slo: self._registry.gauge(
                "slo_alert_firing",
                "1 while the objective's burn-rate alert is firing",
                slo=slo,
            )
            for slo in ("availability", "latency")
        }

    # -- recording ---------------------------------------------------------

    def record(
        self, ok: bool, latency: float, now: Optional[float] = None
    ) -> None:
        """One finished request: did it succeed, and how long did it take.

        ``ok`` means "the client got a real answer" — a 404 is ok, a
        shed/deadline/5xx outcome is not.
        """
        if now is None:
            now = time.time()
        slow = latency > self._latency_threshold
        # acquire/release instead of ``with``: the context-manager
        # protocol costs more than the guarded integer writes.
        self._lock.acquire()
        try:
            self._fast.record(now, ok, slow)
            self._slow.record(now, ok, slow)
            self._n_total += 1
            if not ok:
                self._n_bad += 1
            if slow:
                self._n_slow += 1
        finally:
            self._lock.release()

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _burn(bad: int, total: int, objective: float) -> float:
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - objective)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """Evaluate both objectives, update alert latches, report it all.

        Called by ``/healthz``, ``/v1/admin/slo`` and the run manifest;
        alert state only advances when somebody evaluates, which is fine
        — an alert nobody reads doesn't need to transition on time.
        """
        if now is None:
            now = time.time()
        with self._lock:
            fast = self._fast.totals(now)
            slow = self._slow.totals(now)
            # Sync the cumulative Prometheus counters (see record()).
            self._total.value = float(self._n_total)
            self._bad.value = float(self._n_bad)
            self._slow_counter.value = float(self._n_slow)
        config = self.config
        out: Dict[str, object] = {
            "config": {
                "availability_objective": config.availability_objective,
                "latency_objective": config.latency_objective,
                "latency_threshold_ms": round(
                    config.latency_threshold * 1e3, 3
                ),
                "fast_window_seconds": config.fast_window_seconds,
                "slow_window_seconds": config.slow_window_seconds,
                "burn_rate_threshold": config.burn_rate_threshold,
            }
        }
        for slo, key, objective in (
            ("availability", "bad", config.availability_objective),
            ("latency", "slow", config.latency_objective),
        ):
            windows: Dict[str, object] = {}
            burns: Dict[str, float] = {}
            for window_name, totals in (("fast", fast), ("slow", slow)):
                burn = self._burn(totals[key], totals["total"], objective)
                burns[window_name] = burn
                ratio = (
                    totals[key] / totals["total"] if totals["total"] else 0.0
                )
                windows[window_name] = {
                    "total": totals["total"],
                    "bad": totals[key],
                    "ratio": round(ratio, 6),
                    "good_fraction": round(1.0 - ratio, 6),
                    "burn_rate": round(burn, 3),
                }
                self._burn_gauges[(slo, window_name)].set(burn)
            alert = self._alerts[slo]
            threshold = config.burn_rate_threshold
            alert.update(
                fire=(
                    burns["fast"] >= threshold and burns["slow"] >= threshold
                ),
                clear=burns["fast"] < threshold,
                now=now,
            )
            self._firing_gauges[slo].set(1.0 if alert.firing else 0.0)
            out[slo] = {
                "objective": objective,
                "windows": windows,
                "alert": alert.to_dict(),
            }
        out["any_alert_firing"] = any(
            alert.firing for alert in self._alerts.values()
        )
        return out

    def alerts(self, now: Optional[float] = None) -> Dict[str, str]:
        """``{objective: "firing"|"clear"}`` — the ``/healthz`` summary."""
        snapshot = self.snapshot(now)
        return {
            slo: snapshot[slo]["alert"]["state"]  # type: ignore[index]
            for slo in ("availability", "latency")
        }


class ExemplarStore:
    """Bounded ring of slow-request exemplars with their span trees."""

    def __init__(
        self,
        threshold: float = DEFAULT_EXEMPLAR_THRESHOLD,
        capacity: int = 64,
    ) -> None:
        if threshold < 0:
            raise ConfigError(f"exemplar threshold must be >= 0: {threshold}")
        if capacity < 1:
            raise ConfigError(f"exemplar capacity must be >= 1: {capacity}")
        self.threshold = threshold
        self._ring: "List[Dict[str, object]]" = []
        self._capacity = capacity
        self._lock = threading.Lock()
        self.offered = 0
        self.kept = 0

    def offer(
        self,
        *,
        endpoint: str,
        status: int,
        latency: float,
        trace_id: str = "",
        spans: Optional[List[Dict[str, object]]] = None,
        now: Optional[float] = None,
    ) -> bool:
        """Keep the request if it crossed the threshold; True when kept."""
        self.offered += 1
        if latency < self.threshold:
            return False
        entry: Dict[str, object] = {
            "ts": round(now if now is not None else time.time(), 6),
            "endpoint": endpoint,
            "status": status,
            "latency_ms": round(latency * 1e3, 3),
            "trace_id": trace_id,
        }
        if spans:
            entry["spans"] = spans
        with self._lock:
            self._ring.append(entry)
            if len(self._ring) > self._capacity:
                del self._ring[: len(self._ring) - self._capacity]
            self.kept += 1
        return True

    def exemplars(self) -> List[Dict[str, object]]:
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            retained = len(self._ring)
        return {
            "threshold_ms": round(self.threshold * 1e3, 3),
            "capacity": self._capacity,
            "retained": retained,
            "offered": self.offered,
            "kept": self.kept,
        }


def _process_rss_bytes() -> int:
    """Resident set size, best-effort across platforms (0 if unknown).

    Without ``/proc`` this falls back to the process's peak RSS.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return peak_rss_bytes()


class RuntimeSampler:
    """Background gauge sampler: RSS, threads, GC, queue occupancy."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval: float = 5.0,
        admission=None,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"sampler interval must be positive: {interval}")
        self._registry = registry or get_registry()
        self.interval = interval
        self._admission = admission
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples = 0

    def sample_once(self) -> Dict[str, float]:
        """Take one sample, set the gauges, return the values."""
        registry = self._registry
        values: Dict[str, float] = {
            "rss_bytes": float(_process_rss_bytes()),
            "threads": float(threading.active_count()),
        }
        registry.gauge(
            "process_resident_memory_bytes", "Resident set size"
        ).set(values["rss_bytes"])
        registry.gauge(
            "process_threads", "Live Python threads"
        ).set(values["threads"])
        for generation, stats in enumerate(gc.get_stats()):
            collections = float(stats.get("collections", 0))
            values[f"gc_gen{generation}_collections"] = collections
            registry.gauge(
                "python_gc_collections",
                "GC collections per generation",
                generation=generation,
            ).set(collections)
        if self._admission is not None:
            occupancy = self._admission.occupancy()
            limits = self._admission.limits
            queue_frac = (
                occupancy["queued"] / limits.max_queue
                if limits.max_queue
                else 0.0
            )
            inflight_frac = occupancy["inflight"] / limits.max_inflight
            values["queue_occupancy"] = queue_frac
            values["inflight_occupancy"] = inflight_frac
            registry.gauge(
                "serve_admission_queue_occupancy",
                "Queued requests as a fraction of max_queue",
            ).set(queue_frac)
            registry.gauge(
                "serve_admission_inflight_occupancy",
                "In-flight requests as a fraction of max_inflight",
            ).set(inflight_frac)
        self.samples += 1
        return values

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def start(self) -> "RuntimeSampler":
        if self._thread is not None:
            return self
        self.sample_once()  # gauges are live from the first instant
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="borges-runtime-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "RuntimeSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
