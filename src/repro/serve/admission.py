"""Overload protection for the serve tier: a bounded admission gate.

The HTTP front-end happily spawns one thread per connection, so
without a gate a traffic spike turns into unbounded concurrency, every
request slows down together, and *nothing* finishes within its deadline
— the classic congestion-collapse failure mode.  The
:class:`AdmissionController` inverts that: at most ``max_inflight``
requests execute at once, at most ``max_queue`` wait behind them, and
every waiter carries a per-endpoint deadline.

The three outcomes map directly onto HTTP semantics:

* **admitted** — a slot was free (or became free in time); the caller
  runs with a :class:`Ticket` recording its remaining budget.
* **shed** (:class:`~repro.errors.OverloadedError` → ``429 Retry-After``)
  — the queue is already at its depth limit.  Rejecting instantly is the
  point: the client learns to back off while the answer is still cheap.
* **deadline exceeded** (:class:`~repro.errors.DeadlineExceededError` →
  ``503``) — the request queued but its time budget ran out before a
  slot freed.  Serving it late would waste a slot on an answer the
  client has already abandoned.

Every transition is metered (shed / deadline / admitted counters, gate
occupancy gauges), so ``/metrics`` shows saturation as it happens.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..errors import ConfigError, DeadlineExceededError, OverloadedError
from ..obs import get_registry
from ..obs.log import get_event_log

#: Endpoint deadline used when :class:`AdmissionLimits` names no override.
DEFAULT_DEADLINE_SECONDS = 1.0


@dataclass(frozen=True)
class AdmissionLimits:
    """The gate's sizing knobs.

    ``max_inflight`` bounds concurrent execution, ``max_queue`` bounds
    waiters; their sum is the hard cap on requests the process holds at
    once.  ``deadlines`` overrides the time budget per endpoint (batch
    lookups legitimately take longer than single-ASN hits).
    """

    max_inflight: int = 64
    max_queue: int = 128
    default_deadline: float = DEFAULT_DEADLINE_SECONDS
    deadlines: Mapping[str, float] = field(default_factory=dict)

    def validate(self) -> "AdmissionLimits":
        if self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1: {self.max_inflight}"
            )
        if self.max_queue < 0:
            raise ConfigError(f"max_queue must be >= 0: {self.max_queue}")
        if self.default_deadline <= 0:
            raise ConfigError(
                f"default_deadline must be positive: {self.default_deadline}"
            )
        for endpoint, deadline in self.deadlines.items():
            if deadline <= 0:
                raise ConfigError(
                    f"deadline for {endpoint!r} must be positive: {deadline}"
                )
        return self

    def deadline_for(self, endpoint: str) -> float:
        return self.deadlines.get(endpoint, self.default_deadline)


class Ticket:
    """One admitted request's slot; release by exiting the ``with`` block."""

    __slots__ = ("_controller", "endpoint", "deadline_at", "queued_for")

    def __init__(
        self,
        controller: "AdmissionController",
        endpoint: str,
        deadline_at: float,
        queued_for: float,
    ) -> None:
        self._controller = controller
        self.endpoint = endpoint
        #: Absolute monotonic time the request must finish by.
        self.deadline_at = deadline_at
        #: Seconds this request spent waiting for its slot.
        self.queued_for = queued_for

    def remaining(self) -> float:
        """Seconds of budget left (never negative)."""
        return max(0.0, self.deadline_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.deadline_at

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._controller._release()


class AdmissionController:
    """Bounded concurrency gate with queue-depth limit and deadlines.

    Thread-safe; one instance guards one :class:`QueryService`.  The
    fast path (a free slot) is a lock acquire, two integer updates and a
    gauge set — cheap enough to sit in front of microsecond lookups.
    """

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        registry=None,
    ) -> None:
        self.limits = (limits or AdmissionLimits()).validate()
        self._registry = registry or get_registry()
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._admitted_total = self._registry.counter(
            "serve_admission_admitted_total", "Requests admitted by the gate"
        )
        self._shed_total = self._registry.counter(
            "serve_admission_shed_total",
            "Requests shed with 429 (queue at depth limit)",
        )
        self._deadline_total = self._registry.counter(
            "serve_admission_deadline_exceeded_total",
            "Requests whose deadline expired while queued (503)",
        )
        self._queued_total = self._registry.counter(
            "serve_admission_queued_total",
            "Requests that waited for a slot before admission",
        )
        self._inflight_gauge = self._registry.gauge(
            "serve_admission_inflight", "Requests currently executing"
        )
        self._queue_gauge = self._registry.gauge(
            "serve_admission_queue_depth", "Requests currently queued"
        )

    # -- the gate ----------------------------------------------------------

    def admit(self, endpoint: str) -> Ticket:
        """Take a slot for *endpoint* or raise the applicable rejection.

        Raises :class:`OverloadedError` when the queue is full (the
        caller should answer 429 with ``retry_after``) and
        :class:`DeadlineExceededError` when the endpoint's deadline
        passes while queued (503).
        """
        limits = self.limits
        deadline_budget = limits.deadline_for(endpoint)
        deadline_at = time.monotonic() + deadline_budget
        with self._slot_freed:
            # Fast path only when nobody is waiting: letting newcomers
            # barge past queued requests starves the queue and turns the
            # admitted tail latency into a lottery.
            if self._queued == 0 and self._inflight < limits.max_inflight:
                self._inflight += 1
                self._inflight_gauge.set(self._inflight)
                self._admitted_total.inc()
                return Ticket(self, endpoint, deadline_at, queued_for=0.0)
            if self._queued >= limits.max_queue:
                self._shed_total.inc()
                # Per-request, so info: under overload a warning per
                # shed request would flood stderr (the counter has the rate).
                get_event_log().emit(
                    "admission.shed",
                    endpoint=endpoint,
                    inflight=self._inflight,
                    queued=self._queued,
                )
                raise OverloadedError(
                    endpoint,
                    retry_after=self._retry_after(),
                    inflight=self._inflight,
                    queued=self._queued,
                )
            # Queue up and wait for a slot, bounded by the deadline.
            self._queued += 1
            self._queue_gauge.set(self._queued)
            self._queued_total.inc()
            waited_from = time.monotonic()
            try:
                while self._inflight >= limits.max_inflight:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        self._deadline_total.inc()
                        get_event_log().emit(
                            "admission.deadline",
                            endpoint=endpoint,
                            deadline_seconds=deadline_budget,
                        )
                        raise DeadlineExceededError(endpoint, deadline_budget)
                    self._slot_freed.wait(remaining)
            finally:
                self._queued -= 1
                self._queue_gauge.set(self._queued)
            self._inflight += 1
            self._inflight_gauge.set(self._inflight)
            self._admitted_total.inc()
            return Ticket(
                self,
                endpoint,
                deadline_at,
                queued_for=time.monotonic() - waited_from,
            )

    def _release(self) -> None:
        with self._slot_freed:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
            self._slot_freed.notify()

    def _retry_after(self) -> float:
        """Client backoff hint: roughly one drained queue's worth of time.

        With the gate saturated, the queue drains one request per
        service completion; a full deadline is a conservative stand-in
        for that drain time without tracking per-request durations.
        """
        return self.limits.default_deadline

    # -- accounting --------------------------------------------------------

    def occupancy(self) -> Dict[str, object]:
        """Gate state for ``/healthz`` and service stats."""
        with self._lock:
            inflight = self._inflight
            queued = self._queued
        return {
            "inflight": inflight,
            "queued": queued,
            "max_inflight": self.limits.max_inflight,
            "max_queue": self.limits.max_queue,
            "shed": self._shed_total.value,
            "deadline_exceeded": self._deadline_total.value,
            "admitted": self._admitted_total.value,
        }
