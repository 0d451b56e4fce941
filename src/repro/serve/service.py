"""The query service: cached, metered, admission-gated lookups.

:class:`QueryService` is the in-process read API the HTTP layer, the CLI
(``borges query``) and the load generator all share.  Per-endpoint
latency histograms use lookup-scale (sub-millisecond) buckets; metric
children are resolved once at construction so the per-request cost is a
dict hit, not a registry lock.  Responses are cached in a small LRU as
the UTF-8 JSON bodies the HTTP layer sends, keyed by ``(generation,
stale, endpoint, args)`` — a hot-swap changes the generation and a
failed swap the stale flag, and either one thereby invalidates the
whole cache without any explicit flush.  The dict API decodes a body,
so in-process callers get a fresh dict per call.

When an :class:`~repro.serve.admission.AdmissionController` is attached,
every endpoint passes through it before touching the snapshot: saturated
load is shed with :class:`~repro.errors.OverloadedError` (HTTP 429) and
queue waits past the endpoint's deadline raise
:class:`~repro.errors.DeadlineExceededError` (HTTP 503).  Without one
(the default — CLI one-shots, benchmarks), the gate costs a single
``None`` check.  An optional
:class:`~repro.resilience.faults.FaultInjector` adds seeded serve-side
chaos: ``slow_read`` faults stall a request *while it holds its
admission slot*, which is exactly how slow clients starve real servers.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from contextlib import nullcontext
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..errors import (
    DeadlineExceededError,
    NoSnapshotError,
    OverloadedError,
    SnapshotIntegrityError,
    UnknownASNError,
    UnknownGenerationError,
    UnknownOrgError,
)
from ..obs import DEFAULT_LOOKUP_BUCKETS, get_registry
from ..obs.slo import ExemplarStore, SLOTracker
from ..types import ASN
from .admission import AdmissionController
from .diff import diff_indexes
from .store import Snapshot, SnapshotStore

#: The endpoints the service meters; the HTTP layer maps routes onto them.
ENDPOINTS = ("asn", "org", "siblings", "search", "batch", "diff")

#: Per-endpoint request statuses tracked in ``serve_requests_total``.
STATUSES = ("ok", "not_found", "unavailable", "shed", "deadline")

#: Shared no-op gate for services without an admission controller — one
#: allocation for the process, not one per request.
_NULL_GATE: ContextManager[None] = nullcontext()


def _encode(response: dict) -> bytes:
    """The UTF-8 JSON body of *response* (``json.dumps`` defaults)."""
    return json.dumps(response).encode("utf-8")


class _ResponseLRU:
    """Bounded (generation, stale, endpoint, args) → response-body cache."""

    __slots__ = ("_entries", "_max_entries", "hits", "misses")

    def __init__(self, max_entries: int) -> None:
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._max_entries = max(1, max_entries)
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        try:
            self._entries.move_to_end(key)
        except KeyError:
            # A put on another handler thread evicted the key after the
            # read above; the value is already in hand, so it is a hit.
            pass
        self.hits += 1
        return entry

    def put(self, key: tuple, value: bytes) -> None:
        self._entries[key] = value
        if len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


class QueryService:
    """Answer ASN/org/sibling/search queries against a snapshot store."""

    def __init__(
        self,
        store: Optional[SnapshotStore] = None,
        registry=None,
        cache_size: int = 8192,
        admission: Optional[AdmissionController] = None,
        injector=None,
        slo: Optional[SLOTracker] = None,
        exemplars: Optional[ExemplarStore] = None,
        access_log_sample: float = 1.0,
    ) -> None:
        self.registry = registry or get_registry()
        self.admission = admission
        self._injector = injector
        self.slo = slo
        self.exemplars = exemplars
        self.access_log_sample = access_log_sample
        self.store = store or SnapshotStore(
            registry=self.registry, injector=injector
        )
        self._cache = _ResponseLRU(cache_size)
        self._watch = None
        # Pre-resolved metric children: one registry round-trip at init
        # instead of one (lock + label sort) per request.
        self._latency = {
            endpoint: self.registry.histogram(
                "serve_request_seconds",
                "Query service latency per endpoint",
                buckets=DEFAULT_LOOKUP_BUCKETS,
                endpoint=endpoint,
            )
            for endpoint in ENDPOINTS
        }
        self._requests = {
            (endpoint, status): self.registry.counter(
                "serve_requests_total",
                "Query service requests by endpoint and status",
                endpoint=endpoint,
                status=status,
            )
            for endpoint in ENDPOINTS
            for status in STATUSES
        }
        self._cache_hits = self.registry.counter(
            "serve_cache_hits_total", "Response cache hits"
        )
        self._batch_sizes = self.registry.histogram(
            "serve_batch_size",
            "ASNs per batch lookup",
            buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 100.0, 1000.0),
        )

    # -- plumbing ----------------------------------------------------------

    def _finish(self, endpoint: str, status: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        self._latency[endpoint].observe(elapsed)
        self._requests[(endpoint, status)].inc()
        if self.slo is not None:
            # A 404 is a correct answer; only shed/deadline/unavailable
            # count against availability.
            self.slo.record(ok=status in ("ok", "not_found"), latency=elapsed)

    def _annotate(self, response: dict, generation: int, stale: bool) -> bytes:
        """*response* stamped with its generation (and ``stale``), encoded."""
        response["generation"] = generation
        if stale:
            response["stale"] = True
        return _encode(response)

    def _cached(self, key: tuple, answer: Callable[[], bytes]) -> bytes:
        """The body cached under *key*, or *answer*'s, which is cached."""
        body = self._cache.get(key)
        if body is not None:
            self._cache_hits.inc()
            return body
        body = answer()
        self._cache.put(key, body)
        return body

    def _admit(self, endpoint: str) -> ContextManager:
        """Pass the admission gate (and any injected stall) for *endpoint*.

        Returns the slot ticket to hold for the request's duration.
        Rejections are counted against the endpoint before re-raising so
        shed-vs-error behaviour is visible per route, not only in the
        gate-level totals.
        """
        if self.admission is None:
            if self._injector is not None:
                self._maybe_stall(endpoint)
            return _NULL_GATE
        try:
            ticket = self.admission.admit(endpoint)
        except OverloadedError:
            self._requests[(endpoint, "shed")].inc()
            if self.slo is not None:
                self.slo.record(ok=False, latency=0.0)
            raise
        except DeadlineExceededError:
            self._requests[(endpoint, "deadline")].inc()
            if self.slo is not None:
                self.slo.record(ok=False, latency=0.0)
            raise
        if self._injector is not None:
            # Stall while holding the slot — a slow reader occupies real
            # capacity, which is what makes the fault worth injecting.
            self._maybe_stall(endpoint)
        return ticket

    def _maybe_stall(self, endpoint: str) -> None:
        from ..resilience.faults import SERVE_SURFACE

        kind = self._injector.next_fault(SERVE_SURFACE, endpoint)
        if kind == "slow_read":
            time.sleep(self._injector.profile.slow_read_seconds)

    # -- endpoints ---------------------------------------------------------

    def lookup_asn(self, asn: ASN, gen: Optional[int] = None) -> dict:
        """Resolve one ASN to its organization (the hot path).

        With *gen*, answer from archived generation *gen* instead of the
        active snapshot (time-travel; lazily loaded, LRU-bounded).
        """
        return json.loads(self.lookup_asn_body(asn, gen=gen))

    def lookup_asn_body(self, asn: ASN, gen: Optional[int] = None) -> bytes:
        """:meth:`lookup_asn`'s answer as its JSON body."""
        if gen is not None:
            return self._lookup_asn_at(asn, gen)
        started = time.perf_counter()
        with self._admit("asn"):
            try:
                snapshot = self.store.current()
                try:
                    body = self._asn_body(snapshot, self.store.stale, asn)
                except UnknownASNError:
                    self._finish("asn", "not_found", started)
                    raise
                self._finish("asn", "ok", started)
                return body
            except NoSnapshotError:
                self._finish("asn", "unavailable", started)
                raise

    def _asn_body(self, snapshot: Snapshot, stale: bool, asn: ASN) -> bytes:
        generation = snapshot.generation
        return self._cached(
            (generation, stale, "asn", asn),
            lambda: self._annotate(
                snapshot.index.lookup_asn(asn).to_json(), generation, stale
            ),
        )

    def batch_lookup(self, asns: Iterable[ASN]) -> List[dict]:
        """Resolve many ASNs against one pinned generation.

        The batch holds the snapshot it started with, so a swap landing
        mid-batch changes no entry.  Unknown ASNs yield ``{"asn": n,
        "error": "unknown_asn"}`` entries instead of failing the whole
        batch.
        """
        return json.loads(self.batch_lookup_body(asns))["results"]

    def batch_lookup_body(self, asns: Iterable[ASN]) -> bytes:
        """``{"results": [...]}`` for :meth:`batch_lookup`, joined from
        the entries' cached bodies."""
        started = time.perf_counter()
        with self._admit("batch"):
            try:
                snapshot = self.store.current()
            except NoSnapshotError:
                self._finish("batch", "unavailable", started)
                raise
            stale = self.store.stale
            bodies: List[bytes] = []
            for asn in asns:
                try:
                    bodies.append(self._asn_body(snapshot, stale, asn))
                except UnknownASNError:
                    bodies.append(_encode({"asn": asn, "error": "unknown_asn"}))
            self._batch_sizes.observe(float(len(bodies)))
            self._finish("batch", "ok", started)
            # json.dumps' item separator, so the body is the one
            # json.dumps({"results": [...]}) writes.
            return b'{"results": [' + b", ".join(bodies) + b"]}"

    def lookup_org(self, org_id: str) -> dict:
        return json.loads(self.lookup_org_body(org_id))

    def lookup_org_body(self, org_id: str) -> bytes:
        """:meth:`lookup_org`'s answer as its JSON body."""
        started = time.perf_counter()
        with self._admit("org"):
            try:
                snapshot = self.store.current()
                stale = self.store.stale
                try:
                    body = self._cached(
                        (snapshot.generation, stale, "org", org_id),
                        lambda: self._annotate(
                            snapshot.index.org(org_id).to_json(),
                            snapshot.generation,
                            stale,
                        ),
                    )
                except UnknownOrgError:
                    self._finish("org", "not_found", started)
                    raise
                self._finish("org", "ok", started)
                return body
            except NoSnapshotError:
                self._finish("org", "unavailable", started)
                raise

    def siblings(self, a: ASN, b: Optional[ASN] = None) -> dict:
        """With *b*: are the two ASNs siblings?  Without: list *a*'s org."""
        return json.loads(self.siblings_body(a, b))

    def siblings_body(self, a: ASN, b: Optional[ASN] = None) -> bytes:
        """:meth:`siblings`' answer as its JSON body (not cached)."""
        started = time.perf_counter()
        with self._admit("siblings"):
            try:
                snapshot = self.store.current()
                stale = self.store.stale
                index = snapshot.index
                if b is None:
                    try:
                        record = index.lookup_asn(a)
                    except UnknownASNError:
                        self._finish("siblings", "not_found", started)
                        raise
                    response = {
                        "asn": a,
                        "org_id": record.org.org_id,
                        "siblings": [m for m in record.org.members if m != a],
                    }
                else:
                    response = {
                        "a": a, "b": b, "siblings": index.are_siblings(a, b)
                    }
                body = self._annotate(response, snapshot.generation, stale)
                self._finish("siblings", "ok", started)
                return body
            except NoSnapshotError:
                self._finish("siblings", "unavailable", started)
                raise

    def search(self, query: str, limit: int = 10) -> dict:
        return json.loads(self.search_body(query, limit=limit))

    def search_body(self, query: str, limit: int = 10) -> bytes:
        """:meth:`search`'s answer as its JSON body."""
        started = time.perf_counter()
        with self._admit("search"):
            try:
                snapshot = self.store.current()
                stale = self.store.stale
                body = self._cached(
                    (snapshot.generation, stale, "search", query, limit),
                    lambda: self._annotate(
                        {
                            "query": query,
                            "results": [
                                record.to_json()
                                for record in snapshot.index.search(
                                    query, limit=limit
                                )
                            ],
                        },
                        snapshot.generation,
                        stale,
                    ),
                )
                self._finish("search", "ok", started)
                return body
            except NoSnapshotError:
                self._finish("search", "unavailable", started)
                raise

    # -- time travel -------------------------------------------------------

    def _lookup_asn_at(self, asn: ASN, gen: int) -> bytes:
        """``/v1/asn?gen=N``: answer from an archived generation.

        Archive entries are immutable, so responses cache under the
        archive-generation key forever — a hot-swap never invalidates
        them and never needs to.
        """
        started = time.perf_counter()
        with self._admit("asn"):
            try:
                body = self._cached(
                    ("archive", gen, "asn", asn),
                    lambda: _encode(
                        {
                            **self.store.generation_index(gen)
                            .lookup_asn(asn)
                            .to_json(),
                            "generation": gen,
                            "archived": True,
                        }
                    ),
                )
                self._finish("asn", "ok", started)
                return body
            except UnknownASNError:
                self._finish("asn", "not_found", started)
                raise
            except (UnknownGenerationError, SnapshotIntegrityError):
                # Unknown and corrupt-then-quarantined generations are
                # both "that release is not servable" — a client error,
                # not an outage.
                self._finish("asn", "not_found", started)
                raise
            except NoSnapshotError:
                self._finish("asn", "unavailable", started)
                raise

    def generation_diff(self, from_gen: int, to_gen: int) -> dict:
        """``/v1/diff?from=&to=``: orgs merged/split, ASNs moved.

        Both endpoints of the diff come from the immutable archive, so
        the response is cached under the (from, to) pair permanently.
        """
        return json.loads(self.generation_diff_body(from_gen, to_gen))

    def generation_diff_body(self, from_gen: int, to_gen: int) -> bytes:
        """:meth:`generation_diff`'s answer as its JSON body."""
        started = time.perf_counter()
        with self._admit("diff"):
            try:
                body = self._cached(
                    ("archive-diff", from_gen, to_gen),
                    lambda: _encode(
                        {
                            "from": from_gen,
                            "to": to_gen,
                            **diff_indexes(
                                self.store.generation_index(from_gen),
                                self.store.generation_index(to_gen),
                            ).to_json(),
                        }
                    ),
                )
                self._finish("diff", "ok", started)
                return body
            except (UnknownGenerationError, SnapshotIntegrityError):
                self._finish("diff", "not_found", started)
                raise
            except NoSnapshotError:
                self._finish("diff", "unavailable", started)
                raise

    # -- admin -------------------------------------------------------------

    def attach_watch(self, daemon) -> None:
        """Expose *daemon* (a :class:`~repro.watch.WatchDaemon`) on
        ``/v1/admin/watch`` and in health/stats bodies."""
        self._watch = daemon

    def watch_status(self) -> Optional[dict]:
        """The attached watch daemon's status, or ``None`` if detached."""
        if self._watch is None:
            return None
        return self._watch.status()

    def rollback(self) -> dict:
        """Restore the last-known-good generation (admin surface).

        Raises :class:`~repro.errors.RollbackUnavailableError` when the
        history is empty; rollbacks are never admission-gated — shedding
        the repair action during an overload would be self-defeating.
        """
        snapshot = self.store.rollback()
        return {
            "generation": snapshot.generation,
            "restored": snapshot.label,
            "orgs": len(snapshot.index),
            "asns": snapshot.index.asn_count,
        }

    # -- health / accounting ----------------------------------------------

    def health(self) -> Tuple[bool, dict]:
        """(ready, body) for ``/healthz``: 503 until a snapshot loads."""
        snapshot = self.store.current_or_none()
        if snapshot is None:
            return False, {"status": "unavailable"}
        status = "degraded" if self.store.stale else "ok"
        body: Dict[str, object] = {
            "status": status,
            "generation": snapshot.generation,
            "orgs": len(snapshot.index),
            "asns": snapshot.index.asn_count,
            "rollback_generations": len(self.store.history()),
            "stale": self.store.stale,
            "swap_failures": self.store.swap_failures,
            "rollback_count": self.store.rollback_count,
        }
        if self.store.last_swap_error:
            body["last_swap_error"] = self.store.last_swap_error
        if self._watch is not None:
            watch = self._watch.status()
            body["watch"] = {
                "running": watch.get("running", False),
                "halted": watch.get("halted", False),
                "consecutive_failures": watch.get("consecutive_failures", 0),
            }
            posture = watch.get("last_shard_posture")
            if posture:
                body["watch"]["shard_posture"] = posture
        if self.admission is not None:
            body["admission"] = self.admission.occupancy()
        if self.slo is not None:
            # Alert posture only — /v1/admin/slo has the full windows.
            body["slo"] = self.slo.alerts()
        return True, body

    def stats(self) -> Dict[str, object]:
        totals: Dict[str, float] = {}
        for (endpoint, status), counter in self._requests.items():
            if counter.value:
                totals[f"{endpoint}.{status}"] = counter.value
        # Per-endpoint latency rollups straight off the histograms — the
        # same quantile estimator the load generator summarises with.
        latency: Dict[str, Dict[str, float]] = {}
        for endpoint, histogram in self._latency.items():
            if histogram.count:
                summary = histogram.summary()
                latency[endpoint] = {
                    "count": int(summary["count"]),
                    "mean_us": round(summary["mean"] * 1e6, 3),
                    "p50_us": round(summary["p50"] * 1e6, 3),
                    "p90_us": round(summary["p90"] * 1e6, 3),
                    "p99_us": round(summary["p99"] * 1e6, 3),
                }
        out: Dict[str, object] = {
            "snapshot": self.store.stats(),
            "requests": totals,
            "latency_summary": latency,
            "response_cache": self._cache.stats(),
        }
        if self.admission is not None:
            out["admission"] = self.admission.occupancy()
        if self.slo is not None:
            out["slo"] = self.slo.snapshot()
        if self.exemplars is not None:
            out["exemplars"] = self.exemplars.stats()
        if self._watch is not None:
            out["watch"] = self._watch.status()
        return out
