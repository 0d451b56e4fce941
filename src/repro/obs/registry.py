"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns every metric family created through it.
Library modules grab the process-global registry via :func:`get_registry`
so instrumentation costs one dict lookup; tests inject a fresh registry
with :func:`use_registry` (or :func:`set_registry`) to assert on exact
values without cross-test bleed.

The data model intentionally mirrors Prometheus: a *family* is a name +
type + help text; each unique label combination within a family is one
*child* holding the actual value.  :mod:`repro.obs.prometheus` renders a
registry in the text exposition format.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError

LabelItems = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds), Prometheus-style upper bounds.
#: The sub-millisecond bounds exist for in-memory read paths (the serve
#: index answers in single-digit microseconds); the pipeline-scale spans
#: land in the tail buckets as before.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)

#: Lookup-scale buckets for the query service: O(1) dict hits sit around
#: 1–50 µs, so the default latency buckets would collapse every request
#: into their first bound and hide regressions an order of magnitude big.
DEFAULT_LOOKUP_BUCKETS: Tuple[float, ...] = (
    0.000001, 0.000005, 0.00001, 0.000025, 0.00005, 0.0001,
    0.00025, 0.0005, 0.001, 0.005, 0.025, 0.1,
)

#: Default small-integer buckets (redirect hops, retries, group sizes).
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 16.0)


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of raw samples by nearest-rank; 0.0 if empty.

    The one shared implementation — the load generator and any other
    raw-sample consumer use this; histogram consumers use
    :meth:`Histogram.quantile`, which estimates from bucket counts.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (sizes, rates, last-seen)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``bucket_counts`` holds *non*-cumulative per-bucket tallies —
    the renderer accumulates them on output.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_counts(self) -> List[int]:
        """Counts per bucket as Prometheus renders them (cumulative)."""
        out: List[int] = []
        running = 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) from bucket counts.

        Linear interpolation within the bucket the target rank falls in
        (Prometheus' ``histogram_quantile`` construction).  Ranks landing
        in the ``+Inf`` bucket clamp to the top finite bound — the honest
        answer a fixed-bucket histogram can give.  0.0 when empty.
        """
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = q * self.count
        running = 0
        for i, bound in enumerate(self.buckets):
            previous = running
            running += self.bucket_counts[i]
            if running >= target:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                in_bucket = self.bucket_counts[i]
                if in_bucket == 0:
                    return bound
                frac = (target - previous) / in_bucket
                return lower + (bound - lower) * frac
        return self.buckets[-1]

    def summary(self) -> Dict[str, float]:
        """``{count, mean, p50, p90, p99}`` — the shared latency rollup."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _Family:
    """One metric name: its type, help text, and children by labels."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: "Dict[LabelItems, object]" = {}


class MetricsRegistry:
    """Thread-safe home for metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the family's type, and re-registering a name under a different
    type raises — the same guard Prometheus client libraries enforce.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        # Children already resolved, keyed by (name, kind, labels in the
        # order given).  Read without the lock: a dict lookup is atomic
        # under the GIL, and entries are only added (under the lock)
        # once the child exists in its family.
        self._resolved: Dict[Tuple[str, str, Tuple], object] = {}

    def _child(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Mapping[str, object],
        factory,
    ):
        fast_key = (name, kind, tuple(labels.items()))
        try:
            child = self._resolved.get(fast_key)
        except TypeError:  # an unhashable label value: slow path only
            fast_key = None
            child = None
        if child is not None:
            return child
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ConfigError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            key = _label_items(labels)
            child = family.children.get(key)
            if child is None:
                child = factory()
                family.children[key] = child
            # Only all-string label sets are memoised: equal values of
            # other types (1, 1.0, True) would share one fast-path entry
            # although their str() labels name different children.
            if fast_key is not None and all(
                type(value) is str for value in labels.values()
            ):
                self._resolved[fast_key] = child
            return child

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._child(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._child(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        return self._child(
            name, "histogram", help, labels, lambda: Histogram(buckets)
        )

    def families(self) -> List[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serialisable dump of every metric (manifest format)."""
        out: Dict[str, object] = {}
        for family in self.families():
            series = []
            for key, child in sorted(family.children.items()):
                entry: Dict[str, object] = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry.update(
                        sum=child.sum,
                        count=child.count,
                        mean=child.mean,
                        buckets=[
                            {"le": bound, "count": count}
                            for bound, count in zip(
                                list(child.buckets) + ["+Inf"],
                                child.cumulative_counts(),
                            )
                        ],
                    )
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def value(self, name: str, **labels: object) -> float:
        """Convenience for tests: a counter/gauge child's current value."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_items(labels))
        if child is None or isinstance(child, Histogram):
            return 0.0
        return child.value

    def reset(self) -> None:
        with self._lock:
            self._families.clear()
            self._resolved.clear()


# -- process-global default ----------------------------------------------------

_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented modules default to."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Temporarily install *registry* (default: a fresh one) as global."""
    registry = registry or MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
