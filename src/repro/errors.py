"""Exception hierarchy for the Borges reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Sub-hierarchies
mirror the package layout (data loading, LLM, web, pipeline).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    ``retryable`` classifies the failure for the resilience layer
    (:mod:`repro.resilience`): transient faults — rate limits, timeouts,
    connection resets — are worth retrying with backoff; everything else
    is fatal and propagates immediately.
    """

    retryable = False


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DataError(ReproError):
    """A dataset is malformed, inconsistent, or missing required fields."""


class SchemaError(DataError):
    """A record does not conform to the expected data schema."""


class SnapshotError(DataError):
    """A snapshot file could not be loaded or serialized."""


class UnknownASNError(DataError):
    """An ASN was referenced that is not present in the dataset."""

    def __init__(self, asn: int) -> None:
        super().__init__(f"unknown ASN: {asn}")
        self.asn = asn


class UnknownOrgError(DataError):
    """An organization id was referenced that no snapshot knows about."""

    def __init__(self, org_id: str) -> None:
        super().__init__(f"unknown organization: {org_id}")
        self.org_id = org_id


class ServeError(ReproError):
    """Base class for query-service (read-path) failures."""


class NoSnapshotError(ServeError):
    """The query service has no mapping snapshot loaded yet."""

    def __init__(self) -> None:
        super().__init__("no mapping snapshot loaded")


class OverloadedError(ServeError):
    """The admission gate shed this request (HTTP 429 analogue).

    Shedding happens *before* any work: the concurrency gate is full and
    the wait queue is at its depth limit, so the cheapest correct answer
    is an immediate rejection with a retry hint.  ``retry_after`` is the
    suggested client backoff in seconds.
    """

    retryable = True

    def __init__(
        self, endpoint: str, retry_after: float, inflight: int, queued: int
    ) -> None:
        super().__init__(
            f"overloaded: {endpoint!r} shed with {inflight} in flight and "
            f"{queued} queued; retry after {retry_after:.3f}s"
        )
        self.endpoint = endpoint
        self.retry_after = retry_after
        self.inflight = inflight
        self.queued = queued


class DeadlineExceededError(ServeError):
    """A request's deadline expired while it waited for admission.

    Unlike :class:`OverloadedError` this request *did* spend its full
    time budget queued — the service is saturated rather than bursting —
    so the HTTP layer answers 503, not 429.
    """

    def __init__(self, endpoint: str, deadline: float) -> None:
        super().__init__(
            f"deadline exceeded: {endpoint!r} waited past its "
            f"{deadline:.3f}s budget"
        )
        self.endpoint = endpoint
        self.deadline = deadline


class SnapshotIntegrityError(SnapshotError):
    """A mapping/release input failed digest or schema verification.

    Raised *before* :meth:`~repro.serve.store.SnapshotStore.swap`, so a
    corrupt input can never become the active generation.  The fields
    make the failure actionable: what was loaded, why it was rejected,
    and where the corrupt bytes were quarantined (if they were a file).
    """

    def __init__(
        self,
        source: str,
        reason: str,
        path: str = "",
        expected_digest: str = "",
        actual_digest: str = "",
        quarantined_to: str = "",
    ) -> None:
        detail = f"snapshot integrity failure ({source}): {reason}"
        if path:
            detail += f" [{path}]"
        if quarantined_to:
            detail += f" (quarantined to {quarantined_to})"
        super().__init__(detail)
        self.source = source
        self.reason = reason
        self.path = path
        self.expected_digest = expected_digest
        self.actual_digest = actual_digest
        self.quarantined_to = quarantined_to

    def to_json(self) -> dict:
        """Structured form for logs, manifests and HTTP error bodies."""
        return {
            "source": self.source,
            "reason": self.reason,
            "path": self.path,
            "expected_digest": self.expected_digest,
            "actual_digest": self.actual_digest,
            "quarantined_to": self.quarantined_to,
        }


class RollbackUnavailableError(ServeError):
    """A rollback was requested but no last-known-good generation exists."""

    def __init__(self) -> None:
        super().__init__("no last-known-good generation to roll back to")


class UnknownGenerationError(ServeError):
    """A time-travel query named a generation the archive does not hold."""

    def __init__(self, generation: int, reason: str = "") -> None:
        detail = f"unknown snapshot generation: {generation}"
        if reason:
            detail += f" ({reason})"
        super().__init__(detail)
        self.generation = generation
        self.reason = reason


class WatchError(ReproError):
    """Base class for continuous-operation (``borges watch``) failures."""


class JournalIntegrityError(WatchError):
    """The run journal's digest chain is broken mid-file.

    A truncated *final* line is the expected crash artifact and is
    tolerated by replay; a mid-file break means the journal was edited
    or corrupted and resuming from it would be unsafe.
    """

    def __init__(self, path: str, seq: int, reason: str) -> None:
        super().__init__(
            f"journal integrity failure at entry {seq} in {path}: {reason}"
        )
        self.path = path
        self.seq = seq
        self.reason = reason


class ArchiveError(WatchError):
    """The versioned snapshot archive refused an operation."""


class ArchiveImmutabilityError(ArchiveError):
    """A write would have overwritten an existing archive generation."""

    def __init__(self, generation: int, path: str) -> None:
        super().__init__(
            f"archive generation {generation} already exists at {path}; "
            "archive entries are immutable"
        )
        self.generation = generation
        self.path = path


class DiskPressureError(ArchiveError):
    """Free disk below the archive's floor even after pruning.

    Retryable: the supervisor backs off and re-tries the publish once
    retention (or an operator) has freed space.
    """

    retryable = True

    def __init__(self, free_bytes: int, floor_bytes: int) -> None:
        super().__init__(
            f"disk pressure: {free_bytes} bytes free is below the "
            f"{floor_bytes}-byte archive floor"
        )
        self.free_bytes = free_bytes
        self.floor_bytes = floor_bytes


class LLMError(ReproError):
    """Base class for LLM client/back-end failures."""


class PromptError(LLMError):
    """A prompt template could not be rendered."""


class LLMResponseError(LLMError):
    """The model returned output that could not be parsed."""

    def __init__(self, message: str, raw_output: str = "") -> None:
        super().__init__(message)
        self.raw_output = raw_output


class LLMBackendError(LLMError):
    """The backing model/service failed (simulated rate limits, etc.).

    Backend failures default to retryable; :class:`LLMInvalidRequestError`
    marks the ones where retrying the same request cannot help.
    """

    retryable = True


class LLMRateLimitError(LLMBackendError):
    """The backend rate-limited the request (HTTP 429 analogue)."""


class LLMTimeoutError(LLMBackendError):
    """The backend did not answer in time."""


class LLMConnectionError(LLMBackendError):
    """The connection to the backend dropped mid-request."""


class LLMInvalidRequestError(LLMBackendError):
    """The request itself is malformed; retrying it is pointless."""

    retryable = False


class WebError(ReproError):
    """Base class for simulated-web failures."""


class URLError(WebError):
    """A URL could not be parsed or normalized."""

    def __init__(self, url: str, reason: str) -> None:
        super().__init__(f"bad URL {url!r}: {reason}")
        self.url = url
        self.reason = reason


class FetchError(WebError):
    """A simulated HTTP fetch failed (host down, too many redirects...).

    ``transient`` distinguishes failures worth re-attempting (timeouts,
    resets, 5xx) from permanent ones (NXDOMAIN, bad redirects); the
    scraper retries and re-attempts only the former.
    """

    def __init__(self, url: str, reason: str, transient: bool = False) -> None:
        super().__init__(f"fetch failed for {url!r}: {reason}")
        self.url = url
        self.reason = reason
        self.transient = transient
        self.retryable = transient


class RedirectLoopError(FetchError):
    """A redirect chain exceeded the maximum number of hops."""

    def __init__(self, url: str, max_hops: int) -> None:
        super().__init__(url, f"redirect chain exceeded {max_hops} hops")
        self.max_hops = max_hops


class CircuitOpenError(ReproError):
    """A circuit breaker rejected the call without attempting it."""

    def __init__(self, name: str) -> None:
        super().__init__(f"circuit {name!r} is open; failing fast")
        self.name = name


class ExperimentError(ReproError):
    """An experiment harness failure (unknown experiment id, etc.)."""
