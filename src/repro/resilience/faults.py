"""Seeded fault injection: reproducible chaos for the two flaky surfaces.

Borges depends on LLM completions and live web scraping — exactly the
dependencies that rate-limit, time out and reset in production.  A
:class:`FaultInjector` draws deterministic, order-independent coins
(seed + call identity, see :mod:`repro.resilience.seeding`) against a
named :class:`FaultProfile`, so a chaos run is byte-reproducible from
``(seed, profile)``.  :class:`FaultyChatBackend` and
:class:`repro.web.faults.FaultyWeb` wrap the simulated backend/web and
translate those coins into the faults the resilience layer must
survive: 429 bursts, timeouts, connection resets, intermittent 5xx,
truncated completions.

Profiles
--------

* ``none``   — no faults (the default; byte-identical to the seed run).
* ``flaky``  — moderate transient faults with ``max_consecutive=2``:
  every fault clears within two consecutive attempts, so default retry
  policies (3 attempts) fully mask it and results are identical to a
  fault-free run.  This is the profile the chaos CI job runs under.
* ``burst``  — long correlated rate-limit/5xx bursts that outlast retry
  budgets and trip circuit breakers.
* ``storm``  — heavy faults plus truncated LLM output; features die and
  the pipeline must complete degraded.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import (
    ConfigError,
    LLMConnectionError,
    LLMRateLimitError,
    LLMTimeoutError,
)
from ..obs.registry import MetricsRegistry, get_registry
from .seeding import stable_unit

#: Environment variable naming the profile to inject when the config does
#: not pin one — how CI runs the whole suite under chaos without edits.
ENV_FAULT_PROFILE = "BORGES_FAULT_PROFILE"

LLM_SURFACE = "llm"
WEB_SURFACE = "web"
SERVE_SURFACE = "serve"
WATCH_SURFACE = "watch"
SHARD_SURFACE = "shard"

#: Fraction of a truncated completion that survives.
TRUNCATE_KEEP_FRACTION = 0.4

#: Fraction of a corrupted snapshot file that survives truncation.
SNAPSHOT_KEEP_FRACTION = 0.6


@dataclass(frozen=True)
class FaultProfile:
    """Named, rate-parameterised chaos recipe."""

    name: str
    description: str = ""
    llm_rate_limit: float = 0.0
    llm_timeout: float = 0.0
    llm_reset: float = 0.0
    llm_truncate: float = 0.0
    web_timeout: float = 0.0
    web_reset: float = 0.0
    web_server_error: float = 0.0
    serve_slow_read: float = 0.0
    serve_corrupt_snapshot: float = 0.0
    watch_slow_pipeline: float = 0.0
    watch_publish_crash: float = 0.0
    watch_disk_pressure: float = 0.0
    shard_crash: float = 0.0
    shard_hang: float = 0.0
    shard_flaky: float = 0.0
    #: When a fault fires, it repeats for this many consecutive calls on
    #: the same surface (correlated outages, not independent coin flips).
    burst_length: int = 1
    #: Cap on consecutive faults per call site; 0 = uncapped.  A cap of
    #: ``k`` guarantees any retry policy with > ``k`` attempts recovers,
    #: which is what makes the ``flaky`` profile result-preserving.
    max_consecutive: int = 0
    #: How long a serve-side ``slow_read`` fault stalls a request (the
    #: handler sleeps while holding its admission slot).
    slow_read_seconds: float = 0.002
    #: How long a watch-side ``slow_pipeline`` fault stalls one refresh
    #: cycle (the daemon sleeps mid-run, as a hung stage would).
    slow_pipeline_seconds: float = 0.01
    #: How long a ``shard_hang`` fault sleeps — "forever" relative to any
    #: sane per-shard deadline, so the watchdog (not the sleep expiring)
    #: must be what unblocks the run.
    shard_hang_seconds: float = 120.0
    #: Thundering-herd sizing hint for load generators: clients per
    #: admission slot released simultaneously (0 = not a herd profile).
    herd_multiplier: int = 0

    _RATE_FIELDS = (
        "llm_rate_limit",
        "llm_timeout",
        "llm_reset",
        "llm_truncate",
        "web_timeout",
        "web_reset",
        "web_server_error",
        "serve_slow_read",
        "serve_corrupt_snapshot",
        "watch_slow_pipeline",
        "watch_publish_crash",
        "watch_disk_pressure",
        "shard_crash",
        "shard_hang",
        "shard_flaky",
    )

    def validate(self) -> "FaultProfile":
        for field_name in self._RATE_FIELDS:
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{field_name} out of [0,1]: {rate}")
        if self.burst_length < 1:
            raise ConfigError("burst_length must be >= 1")
        if self.max_consecutive < 0:
            raise ConfigError("max_consecutive must be >= 0")
        return self

    @property
    def active(self) -> bool:
        return any(getattr(self, f) > 0.0 for f in self._RATE_FIELDS)

    def rates_for(self, surface: str) -> Sequence[Tuple[str, float]]:
        """``(kind, rate)`` pairs for one surface, in fixed draw order."""
        prefix = surface + "_"
        return tuple(
            (f[len(prefix):], getattr(self, f))
            for f in self._RATE_FIELDS
            if f.startswith(prefix)
        )


PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile.validate()
    for profile in (
        FaultProfile(name="none", description="no injected faults"),
        FaultProfile(
            name="flaky",
            description=(
                "moderate transient faults, always recoverable within the "
                "default retry budget (result-preserving)"
            ),
            llm_rate_limit=0.05,
            llm_timeout=0.04,
            llm_reset=0.02,
            web_timeout=0.05,
            web_reset=0.02,
            web_server_error=0.04,
            max_consecutive=2,
        ),
        FaultProfile(
            name="burst",
            description=(
                "correlated rate-limit/5xx bursts that exhaust retries and "
                "trip circuit breakers"
            ),
            llm_rate_limit=0.04,
            web_server_error=0.04,
            burst_length=8,
        ),
        FaultProfile(
            name="slow-reader",
            description=(
                "every serve request stalls while holding its admission "
                "slot; exercises queue-depth shedding and deadlines"
            ),
            serve_slow_read=1.0,
        ),
        FaultProfile(
            name="corrupt-snapshot",
            description=(
                "every snapshot file read is truncated and bit-flipped; "
                "the integrity layer must reject it before swap"
            ),
            serve_corrupt_snapshot=1.0,
        ),
        FaultProfile(
            name="thundering-herd",
            description=(
                "load generators aim 8 simultaneous clients at every "
                "admission slot, and each request stalls briefly while "
                "holding it — a herd is only dangerous when requests "
                "take non-trivial time"
            ),
            herd_multiplier=8,
            serve_slow_read=1.0,
            slow_read_seconds=0.005,
        ),
        FaultProfile(
            name="slow-pipeline",
            description=(
                "every watch refresh cycle stalls mid-pipeline; the "
                "supervisor must keep serving and the schedule must not "
                "drift into overlapping runs"
            ),
            watch_slow_pipeline=1.0,
            slow_pipeline_seconds=0.05,
        ),
        FaultProfile(
            name="publish-crash",
            description=(
                "watch publishes crash between the archive write and the "
                "swap; the journal must make the re-run resume instead of "
                "double-publishing"
            ),
            watch_publish_crash=0.5,
            max_consecutive=1,
        ),
        FaultProfile(
            name="disk-pressure",
            description=(
                "every archive write sees a full disk; retention must "
                "prune oldest-first and the daemon must back off without "
                "taking down serving"
            ),
            watch_disk_pressure=1.0,
        ),
        FaultProfile(
            name="shard-crash",
            description=(
                "roughly half the shards of a sharded run die mid-attempt "
                "(fork: os._exit; thread: raised fault) on every attempt; "
                "retries exhaust, so the run must quarantine the doomed "
                "shards and salvage a degraded mapping from the survivors"
            ),
            shard_crash=0.5,
        ),
        FaultProfile(
            name="shard-hang",
            description=(
                "roughly half the shards hang (sleep far past any sane "
                "deadline) on every attempt; the watchdog must SIGKILL at "
                "the deadline, retry, then quarantine"
            ),
            shard_hang=0.5,
        ),
        FaultProfile(
            name="shard-flaky",
            description=(
                "a shard's first attempt may crash but retries never do; "
                "one retry always recovers, so the run must complete "
                "clean (not degraded) with nonzero retry counters"
            ),
            shard_flaky=0.6,
        ),
        FaultProfile(
            name="storm",
            description=(
                "heavy faults plus truncated completions; features fail and "
                "the pipeline completes degraded"
            ),
            llm_rate_limit=0.15,
            llm_timeout=0.15,
            llm_reset=0.05,
            llm_truncate=0.10,
            web_timeout=0.25,
            web_reset=0.10,
            web_server_error=0.15,
        ),
    )
}


def resolve_fault_profile(name: Optional[str] = None) -> FaultProfile:
    """Look up a profile by name, falling back to ``$BORGES_FAULT_PROFILE``.

    An empty/``None`` *name* defers to the environment (default
    ``none``), which is how an unmodified test suite runs under chaos.
    """
    if not name:
        name = os.environ.get(ENV_FAULT_PROFILE, "") or "none"
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault profile {name!r}; known: {sorted(PROFILES)}"
        ) from None


def shard_fault_decision(
    profile: FaultProfile, seed: int, shard_index: int, attempt: int
) -> Optional[str]:
    """The fault a shard attempt must act out (``crash``/``hang``/``None``).

    Drawn in the *parent*, never inside the shard worker: a forked child
    inherits a copy of any injector state, so child-side draws would
    reset the occurrence counter on every retry and re-roll the same
    coin forever.  A pure function of ``(seed, profile, shard, attempt)``
    keeps chaos runs byte-reproducible and identical across thread and
    process execution.

    ``crash`` and ``hang`` are attempt-independent — a poisoned shard
    stays poisoned, so a bounded retry budget exhausts and the
    quarantine/salvage path engages.  ``flaky`` fires only on the first
    attempt (returned as ``crash``), so a single retry always recovers.
    """
    key = str(shard_index)
    if profile.shard_crash > 0.0:
        if stable_unit(
            seed, profile.name, SHARD_SURFACE, "crash", key, 0
        ) < profile.shard_crash:
            return "crash"
    if profile.shard_hang > 0.0:
        if stable_unit(
            seed, profile.name, SHARD_SURFACE, "hang", key, 0
        ) < profile.shard_hang:
            return "hang"
    if attempt == 0 and profile.shard_flaky > 0.0:
        if stable_unit(
            seed, profile.name, SHARD_SURFACE, "flaky", key, 0
        ) < profile.shard_flaky:
            return "crash"
    return None


class FaultInjector:
    """Draws the per-call fault decisions for one chaos run.

    Decisions are keyed by ``(surface, kind, key, occurrence)`` where the
    occurrence counter distinguishes retries of the same call — so a
    retried request re-rolls the dice, yet the whole sequence is a pure
    function of the seed and the (deterministic) call order.
    """

    def __init__(
        self,
        profile: FaultProfile,
        seed: int = 2020,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self._registry = registry
        self._occurrence: Dict[Tuple[str, str], int] = {}
        self._consecutive: Dict[Tuple[str, str], int] = {}
        #: Per-surface correlated-burst state: (kind, remaining calls).
        self._burst: Dict[str, Tuple[str, int]] = {}
        self.injected: Dict[str, int] = {}

    @property
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _record(self, surface: str, kind: str) -> None:
        label = f"{surface}:{kind}"
        self.injected[label] = self.injected.get(label, 0) + 1
        self._metrics.counter(
            "faults_injected_total", "faults injected by the chaos layer",
            surface=surface, kind=kind,
        ).inc()

    def next_fault(self, surface: str, key: str) -> Optional[str]:
        """The fault kind to inject for this call, or ``None``."""
        profile = self.profile
        if not profile.active:
            return None
        site = (surface, key)
        occurrence = self._occurrence.get(site, 0)
        self._occurrence[site] = occurrence + 1

        burst = self._burst.get(surface)
        if burst is not None:
            kind, remaining = burst
            if remaining > 0:
                self._burst[surface] = (kind, remaining - 1)
                self._consecutive[site] = self._consecutive.get(site, 0) + 1
                self._record(surface, kind)
                return kind
            del self._burst[surface]

        if (
            profile.max_consecutive
            and self._consecutive.get(site, 0) >= profile.max_consecutive
        ):
            # Guaranteed-recovery window: the fault clears for this call.
            self._consecutive[site] = 0
            return None

        for kind, rate in profile.rates_for(surface):
            if rate <= 0.0:
                continue
            draw = stable_unit(
                self.seed, profile.name, surface, kind, key, occurrence
            )
            if draw < rate:
                if profile.burst_length > 1:
                    self._burst[surface] = (kind, profile.burst_length - 1)
                self._consecutive[site] = self._consecutive.get(site, 0) + 1
                self._record(surface, kind)
                return kind
        self._consecutive[site] = 0
        return None

    def stats(self) -> Dict[str, int]:
        """Injected-fault tallies, for diagnostics and manifests."""
        return dict(sorted(self.injected.items()))


def corrupt_snapshot_text(text: str, seed: int = 2020) -> str:
    """Deterministically corrupt snapshot *text* (truncate + bit-flip).

    Models the two ways snapshot files really go bad — a partial write
    (truncation mid-record) and silent byte corruption — as a pure
    function of ``(text, seed)`` so chaos runs replay exactly.  The
    result is guaranteed to differ from the input.
    """
    if not text:
        return "\x00"
    cut = max(1, int(len(text) * SNAPSHOT_KEEP_FRACTION))
    truncated = text[:cut]
    flip_at = int(stable_unit(seed, "snapshot", "flip", str(len(text)), 0)
                  * len(truncated))
    flip_at = min(flip_at, len(truncated) - 1)
    flipped = chr((ord(truncated[flip_at]) ^ 0x1) or 0x1)
    corrupted = truncated[:flip_at] + flipped + truncated[flip_at + 1:]
    if corrupted == text:
        corrupted += "\x00"
    return corrupted


class FaultyChatBackend:
    """Chat-backend decorator injecting seeded LLM faults.

    Duck-types :class:`repro.llm.client.ChatBackend` (kept import-free to
    avoid a dependency cycle): 429s, timeouts and resets are raised as
    retryable backend errors; ``truncate`` mangles an otherwise-good
    completion the way an interrupted stream would.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector
        self.name = getattr(inner, "name", "unknown")

    @property
    def inner(self):
        return self._inner

    @staticmethod
    def _key(messages) -> str:
        hasher = hashlib.sha256()
        for message in messages:
            hasher.update(message.cache_key().encode("utf-8", "replace"))
            hasher.update(b"\x1e")
        return hasher.hexdigest()[:16]

    def complete(self, messages, config) -> str:
        kind = self._injector.next_fault(LLM_SURFACE, self._key(messages))
        if kind == "rate_limit":
            raise LLMRateLimitError("injected fault: rate limited (HTTP 429)")
        if kind == "timeout":
            raise LLMTimeoutError("injected fault: completion timed out")
        if kind == "reset":
            raise LLMConnectionError("injected fault: connection reset by peer")
        content = self._inner.complete(messages, config)
        if kind == "truncate":
            return content[: max(1, int(len(content) * TRUNCATE_KEEP_FRACTION))]
        return content
