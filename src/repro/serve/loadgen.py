"""Seeded Zipfian load generation for the query service.

Real AS-lookup traffic is heavily skewed — a handful of hypergiant and
tier-1 ASNs absorb most queries — so the generator draws ASNs from a
Zipf(s) distribution over a shuffled rank order.  Everything is seeded:
the same ``(seed, universe)`` pair replays the identical request stream,
so two runs can be compared.

Two driving modes:

* :meth:`LoadGenerator.run_overload` — worker threads hammering the
  service at once (optionally synchronized into thundering-herd waves)
  to exercise the admission gate.  The report classifies every response
  (``2xx`` / ``429`` / ``4xx`` / ``5xx`` / ``deadline``) and records
  latency percentiles for *admitted* requests only, which is the number
  the overload benchmark holds to its p99 bound.  With ``target=`` the
  same workers drive a live HTTP server instead of the in-process
  service, all sharing one bounded :class:`HttpConnectionPool` — N
  worker threads reuse ~pool-size kernel connections instead of opening
  one ephemeral port per request.
* :func:`run_pipelined` — a raw-socket HTTP/1.1 pipelining client for
  aggregate-throughput measurement against a multi-worker pool, where
  ``http.client``'s per-response parsing would make the *client* the
  bottleneck.

The multi-threaded report carries per-worker rows alongside the
aggregate, so a multi-process serve tier can be read as "machine
throughput" and "per-worker share" from one run.
"""

from __future__ import annotations

import bisect
import http.client
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

from ..errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    UnknownASNError,
)
from ..obs.registry import percentile
from ..types import ASN
from .service import QueryService

#: Response classes tracked by :class:`LoadReport`.  ``deadline`` is kept
#: distinct from ``5xx``: a deadline rejection is the gate working as
#: designed, a ``5xx`` is the service failing.
RESPONSE_CLASSES = ("2xx", "429", "4xx", "5xx", "deadline")


class ZipfianSampler:
    """Draw items with Zipf(s) rank frequencies via inverse-CDF lookup."""

    def __init__(
        self, items: Sequence[ASN], s: float = 1.1, seed: int = 42
    ) -> None:
        if not items:
            raise ConfigError("cannot sample from an empty item set")
        if s <= 0:
            raise ConfigError(f"zipf exponent must be positive: {s}")
        self._rng = random.Random(seed)
        # Shuffle so "rank 1" is not simply the lowest ASN — which ASNs
        # are hot is itself part of the seeded scenario.
        self._items: List[ASN] = list(items)
        self._rng.shuffle(self._items)
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, len(self._items) + 1):
            total += 1.0 / (rank ** s)
            cdf.append(total)
        self._cdf = [value / total for value in cdf]

    def sample(self) -> ASN:
        u = self._rng.random()
        return self._items[bisect.bisect_left(self._cdf, u)]

    def stream(self, n: int) -> Iterator[ASN]:
        for _ in range(n):
            yield self.sample()


# ``percentile`` now lives in :mod:`repro.obs.registry` (shared with the
# histogram summary API); imported above so existing
# ``from repro.serve.loadgen import percentile`` callers keep working.


def _parse_target(target: str) -> Tuple[str, int]:
    """``host:port`` (optionally with an ``http://`` scheme) → (host, port)."""
    parsed = urlparse(target if "//" in target else f"//{target}")
    if not parsed.hostname or not parsed.port:
        raise ConfigError(f"load target must be host:port, got {target!r}")
    return parsed.hostname, parsed.port


class HttpConnectionPool:
    """A bounded, shared pool of keep-alive connections to one server.

    N load-worker threads previously each opened one connection *per
    request*; against a 16-worker bench that exhausts the ephemeral
    port range (every closed connection parks in TIME_WAIT).  Here the
    threads share at most *size* persistent ``http.client`` connections:
    :meth:`request` checks one out (blocking when all are busy), issues
    the request, reads the **whole** body (required to keep the
    keep-alive stream in sync), and returns the connection to the pool.

    A connection that fails mid-request is discarded and replaced with
    a fresh one, up to :attr:`RETRIES` attempts — a server worker being
    hard-killed drops its connections; retrying on a new connection
    lands on a surviving worker, which is exactly the client behaviour
    the churn test relies on.  Failures are counted in
    :attr:`conn_errors`.
    """

    RETRIES = 3

    def __init__(
        self, host: str, port: int, size: int = 8, timeout: float = 10.0
    ) -> None:
        if size < 1:
            raise ConfigError(f"pool size must be >= 1: {size}")
        self.host = host
        self.port = port
        self.size = size
        self.timeout = timeout
        self._slots = threading.BoundedSemaphore(size)
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self.created = 0
        self.conn_errors = 0

    @classmethod
    def for_target(cls, target: str, size: int = 8, timeout: float = 10.0):
        host, port = _parse_target(target)
        return cls(host, port, size=size, timeout=timeout)

    def _connect(self) -> http.client.HTTPConnection:
        with self._lock:
            self.created += 1
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(self, method: str, path: str) -> Tuple[int, bytes]:
        """Issue one request; returns ``(status, body)``.

        Raises :class:`ConnectionError` after :attr:`RETRIES` failed
        attempts (each on a fresh connection).
        """
        self._slots.acquire()
        try:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                conn = self._connect()
            last_error: Optional[Exception] = None
            for _ in range(self.RETRIES):
                try:
                    conn.request(method, path)
                    response = conn.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    last_error = exc
                    conn.close()
                    with self._lock:
                        self.conn_errors += 1
                    conn = self._connect()
                    continue
                with self._lock:
                    self._idle.append(conn)
                return response.status, body
            conn.close()
            raise ConnectionError(
                f"request to {self.host}:{self.port}{path} failed after "
                f"{self.RETRIES} attempts: {last_error}"
            )
        finally:
            self._slots.release()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def run_pipelined(
    target: str,
    paths: Sequence[str],
    repeat: int = 1,
    batch: int = 64,
    timeout: float = 30.0,
) -> Dict[str, object]:
    """Drive *target* with pipelined HTTP/1.1 GETs over one raw socket.

    Writes *batch* requests back-to-back, then drains that batch's
    responses before sending the next, ``repeat`` passes over *paths*.
    Responses are counted (and status-classified) by scanning for the
    ``HTTP/1.1 `` status-line marker rather than fully parsed — the
    point of this client is that its per-response cost is a ``find``,
    so a single client thread can saturate several server processes and
    the measured number is the *server's* aggregate throughput, not the
    client's parsing speed.  Returns ``{requests, ok, errors,
    elapsed_seconds, qps}``.
    """
    host, port = _parse_target(target)
    marker = b"HTTP/1.1 "
    requests = 0
    ok = 0
    errors = 0
    started = time.perf_counter()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        prefix = f"Host: {host}:{port}\r\nConnection: keep-alive\r\n\r\n"
        encoded = [
            f"GET {path} HTTP/1.1\r\n{prefix}".encode("ascii")
            for path in paths
        ]
        buffer = b""
        for _ in range(repeat):
            for start in range(0, len(encoded), batch):
                chunk = encoded[start:start + batch]
                sock.sendall(b"".join(chunk))
                requests += len(chunk)
                seen = 0
                while seen < len(chunk):
                    data = sock.recv(1 << 16)
                    if not data:
                        raise ConnectionError(
                            "server closed mid-pipeline after "
                            f"{requests - len(chunk) + seen} responses"
                        )
                    buffer += data
                    position = 0
                    while True:
                        found = buffer.find(marker, position)
                        if found < 0:
                            break
                        status = buffer[found + 9:found + 12]
                        if status == b"200":
                            ok += 1
                        elif not status.startswith(b"4"):
                            errors += 1
                        seen += 1
                        position = found + len(marker)
                    # Keep a marker-minus-one tail so a status line split
                    # across reads is still found, but an already-counted
                    # marker ending the buffer cannot be counted twice.
                    buffer = buffer[max(0, len(buffer) - (len(marker) - 1)):]
    elapsed = time.perf_counter() - started
    return {
        "requests": requests,
        "ok": ok,
        "errors": errors,
        "elapsed_seconds": round(elapsed, 6),
        "qps": round(requests / elapsed, 1) if elapsed else 0.0,
    }


@dataclass
class LoadReport:
    """What one load run did and how fast the service answered."""

    requests: int
    ok: int
    not_found: int
    elapsed_seconds: float
    mix: Dict[str, int] = field(default_factory=dict)
    #: Response-class counts (``2xx``/``429``/``4xx``/``5xx``/``deadline``).
    classes: Dict[str, int] = field(default_factory=dict)
    #: Latency percentiles over *admitted* (2xx/4xx) requests, seconds.
    admitted_p50: float = 0.0
    admitted_p99: float = 0.0
    #: Connection-level failures recovered by retry (HTTP target runs).
    conn_errors: int = 0
    #: Per-worker-thread rows (``{worker, requests, ok, qps, classes}``)
    #: from multi-threaded runs; the top-level figures are the machine
    #: aggregate across these.
    per_worker: List[Dict[str, object]] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.requests / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def shed(self) -> int:
        return self.classes.get("429", 0)

    @property
    def server_errors(self) -> int:
        return self.classes.get("5xx", 0)

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "requests": self.requests,
            "ok": self.ok,
            "not_found": self.not_found,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "qps": round(self.qps, 1),
            "mix": dict(self.mix),
        }
        if self.classes:
            out["classes"] = dict(self.classes)
            out["admitted_p50_ms"] = round(self.admitted_p50 * 1e3, 3)
            out["admitted_p99_ms"] = round(self.admitted_p99 * 1e3, 3)
        if self.conn_errors:
            out["conn_errors"] = self.conn_errors
        if self.per_worker:
            out["aggregate_qps"] = round(self.qps, 1)
            out["per_worker"] = [dict(entry) for entry in self.per_worker]
        return out


class LoadGenerator:
    """Drive a :class:`QueryService` with a seeded Zipfian request mix."""

    def __init__(
        self,
        service: QueryService,
        asns: Sequence[ASN],
        seed: int = 42,
        zipf_s: float = 1.1,
    ) -> None:
        if not asns:
            raise ConfigError("cannot sample from an empty item set")
        self.service = service
        self.asns = list(asns)
        self.seed = seed
        self.zipf_s = zipf_s

    def run_overload(
        self,
        requests: int,
        workers: int = 16,
        herd_size: int = 0,
        unknown_fraction: float = 0.0,
        backoff_seconds: float = 0.005,
        target: Optional[str] = None,
        pool_size: Optional[int] = None,
    ) -> LoadReport:
        """Hammer the service from *workers* threads at once.

        Requests are split evenly across workers, each with its own
        seeded sampler (derived from this generator's seed and the
        worker index, so the aggregate stream is reproducible regardless
        of thread interleaving).  With ``herd_size > 0`` the workers
        synchronize on a barrier every ``herd_size`` requests —
        thundering-herd waves that spike instantaneous concurrency far
        above the average rate.

        Every response is classified: success and not-found are ``2xx``
        and ``4xx``; :class:`~repro.errors.OverloadedError` is ``429``;
        :class:`~repro.errors.DeadlineExceededError` is ``deadline``;
        anything else the service raises counts as ``5xx``.  Latency
        percentiles cover admitted requests only — rejected requests are
        fast by design and would flatter the tail.

        A rejected worker sleeps ``backoff_seconds`` (with seeded jitter)
        before its next request, as a well-behaved client honouring
        ``Retry-After`` would.  Without it the shed workers spin on the
        gate and — under the GIL — starve the very requests that *were*
        admitted, so the measured tail reflects scheduler convoying
        rather than queueing.

        With ``target="host:port"`` the same seeded workers drive a
        live HTTP server through one shared :class:`HttpConnectionPool`
        (sized *pool_size*, default ``min(workers, 8)``): 200 → ``2xx``,
        404 → ``4xx``, 429 → ``429``, 503 with a deadline body →
        ``deadline``, anything else (including requests whose retries
        exhausted) → ``5xx``; recovered connection failures land in
        ``conn_errors``.  The report's ``per_worker`` rows carry each
        thread's own request count and rate; the top-level figures stay
        the machine aggregate.
        """
        if workers < 1:
            raise ConfigError(f"workers must be >= 1: {workers}")
        per_worker = max(1, requests // workers)
        barrier = (
            threading.Barrier(workers) if herd_size > 0 and workers > 1 else None
        )
        pool: Optional[HttpConnectionPool] = None
        if target is not None:
            pool = HttpConnectionPool.for_target(
                target, size=pool_size if pool_size else min(workers, 8)
            )
        lock = threading.Lock()
        classes = {cls: 0 for cls in RESPONSE_CLASSES}
        latencies: List[float] = []
        ok_total = 0
        not_found_total = 0
        worker_rows: List[Optional[Dict[str, object]]] = [None] * workers

        def classify_http(asn: int, local_classes: Dict[str, int]) -> str:
            try:
                status, body = pool.request("GET", f"/v1/asn/{asn}")
            except ConnectionError:
                local_classes["5xx"] += 1
                return "5xx"
            if status == 200:
                local_classes["2xx"] += 1
                return "2xx"
            if status == 429:
                local_classes["429"] += 1
                return "429"
            if status == 503 and b"deadline" in body:
                local_classes["deadline"] += 1
                return "deadline"
            if 400 <= status < 500:
                local_classes["4xx"] += 1
                return "4xx"
            local_classes["5xx"] += 1
            return "5xx"

        def worker(index: int) -> None:
            nonlocal ok_total, not_found_total
            sampler = ZipfianSampler(
                self.asns, s=self.zipf_s, seed=self.seed + 7919 * (index + 1)
            )
            rng = random.Random(self.seed ^ (index << 8))
            local_classes = {cls: 0 for cls in RESPONSE_CLASSES}
            local_latencies: List[float] = []
            ok = 0
            not_found = 0
            worker_started = time.perf_counter()
            for i in range(per_worker):
                if barrier is not None and i % herd_size == 0:
                    try:
                        barrier.wait(timeout=10.0)
                    except threading.BrokenBarrierError:
                        pass  # a worker finished early; keep going solo
                asn = -1 if rng.random() < unknown_fraction else sampler.sample()
                t0 = time.perf_counter()
                if pool is not None:
                    outcome = classify_http(asn, local_classes)
                    if outcome in ("2xx", "4xx"):
                        local_latencies.append(time.perf_counter() - t0)
                        if outcome == "2xx":
                            ok += 1
                        else:
                            not_found += 1
                    elif outcome in ("429", "deadline") and backoff_seconds > 0:
                        time.sleep(backoff_seconds * (0.5 + rng.random()))
                    continue
                try:
                    self.service.lookup_asn(asn)
                    local_latencies.append(time.perf_counter() - t0)
                    local_classes["2xx"] += 1
                    ok += 1
                except UnknownASNError:
                    local_latencies.append(time.perf_counter() - t0)
                    local_classes["4xx"] += 1
                    not_found += 1
                except OverloadedError:
                    local_classes["429"] += 1
                    if backoff_seconds > 0:
                        time.sleep(backoff_seconds * (0.5 + rng.random()))
                except DeadlineExceededError:
                    local_classes["deadline"] += 1
                    if backoff_seconds > 0:
                        time.sleep(backoff_seconds * (0.5 + rng.random()))
                except (ReproError, RuntimeError):
                    # NoSnapshotError or anything unexpected: the client
                    # saw a server failure either way.
                    local_classes["5xx"] += 1
            worker_elapsed = time.perf_counter() - worker_started
            with lock:
                for cls, count in local_classes.items():
                    classes[cls] += count
                latencies.extend(local_latencies)
                ok_total += ok
                not_found_total += not_found
                worker_rows[index] = {
                    "worker": index,
                    "requests": per_worker,
                    "ok": ok,
                    "elapsed_seconds": round(worker_elapsed, 6),
                    "qps": round(
                        per_worker / worker_elapsed if worker_elapsed else 0.0,
                        1,
                    ),
                    "classes": {
                        cls: count
                        for cls, count in local_classes.items()
                        if count
                    },
                }

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
            for i in range(workers)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if pool is not None:
            pool.close()

        issued = per_worker * workers
        return LoadReport(
            requests=issued,
            ok=ok_total,
            not_found=not_found_total,
            elapsed_seconds=elapsed,
            mix={"asn": issued},
            classes=classes,
            admitted_p50=percentile(latencies, 0.50),
            admitted_p99=percentile(latencies, 0.99),
            conn_errors=pool.conn_errors if pool is not None else 0,
            per_worker=[row for row in worker_rows if row is not None],
        )
