"""Resilience layer: retries, circuit breakers, seeded fault injection.

Borges leans on two inherently flaky external surfaces — LLM completions
(§4.2) and live scraping of PeeringDB websites (§4.3).  This package
gives the reproduction the machinery a production deployment needs to
survive them, and a deterministic chaos layer to prove that it does:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: exponential
  backoff with seeded jitter and retryable-vs-fatal classification.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` and
  :class:`BreakerRegistry`: closed/open/half-open gates per backend and
  per host.
* :mod:`repro.resilience.faults` — :class:`FaultInjector` plus the
  :data:`PROFILES` catalogue and the :class:`FaultyChatBackend`
  wrapper (the web's is :class:`repro.web.faults.FaultyWeb`); chaos
  runs reproduce exactly from ``(seed, profile)``.
* :mod:`repro.resilience.seeding` — the order-independent hash both the
  jitter and the injector draw from.

The pipeline (:class:`repro.core.BorgesPipeline`) composes all three:
retries mask transient faults, breakers fail fast through outages, and
per-feature isolation boundaries turn anything that still escapes into a
recorded, degraded-but-complete run.
"""

from .breaker import BreakerRegistry, CircuitBreaker
from .faults import (
    ENV_FAULT_PROFILE,
    PROFILES,
    SERVE_SURFACE,
    SHARD_SURFACE,
    WATCH_SURFACE,
    FaultInjector,
    FaultProfile,
    FaultyChatBackend,
    corrupt_snapshot_text,
    resolve_fault_profile,
    shard_fault_decision,
)
from .policy import RetryPolicy, is_retryable
from .seeding import stable_choice_index, stable_unit

__all__ = [
    "BreakerRegistry",
    "CircuitBreaker",
    "ENV_FAULT_PROFILE",
    "PROFILES",
    "FaultInjector",
    "FaultProfile",
    "FaultyChatBackend",
    "SERVE_SURFACE",
    "SHARD_SURFACE",
    "WATCH_SURFACE",
    "corrupt_snapshot_text",
    "resolve_fault_profile",
    "shard_fault_decision",
    "RetryPolicy",
    "is_retryable",
    "stable_choice_index",
    "stable_unit",
]
