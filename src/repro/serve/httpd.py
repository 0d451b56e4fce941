"""Lean HTTP/1.1 front-end for the query service.

A thread-per-connection TCP server whose handler runs a keep-alive
HTTP/1.1 request loop, exposing the read API as JSON:

==========================  ===================================================
``GET /v1/asn/{asn}``        one ASN's organization (404 unknown ASN);
                             ``?gen=N`` answers from archived generation N
``GET /v1/org/{id}``         one organization's members (404 unknown id)
``GET /v1/siblings``         ``?a=&b=`` verdict, or ``?asn=`` sibling list
``GET /v1/search``           ``?q=&limit=`` org-name search (``limit`` at
                             most :data:`MAX_SEARCH_LIMIT`)
``GET /v1/diff``             ``?from=&to=`` orgs merged/split, ASNs moved
                             between two archived generations
``POST /v1/batch``           ``{"asns": [...]}`` batched lookup
``POST /v1/admin/rollback``  restore the last-known-good generation
``GET /v1/admin/watch``      the continuous-refresh daemon's posture
``GET /v1/admin/slo``        burn rates + alert state per objective
``GET /v1/admin/exemplars``  slow-request exemplars with span trees
``GET /healthz``             200 ok/degraded, 503 before the first snapshot
``GET /metrics``             Prometheus text exposition
==========================  ===================================================

Each request costs one parse and one ``write``.  The loop reads the
request line and headers itself (no ``email.parser``), and every
response — status line, headers and body — leaves in a single send.
Query answers come from :class:`~repro.serve.service.QueryService` as
the JSON bodies its response cache holds and are written unchanged, so
a cache hit is never encoded again.  With two sends per response, concurrent handler threads convoy on the
GIL: each send releases it and then waits for another handler to hand
it back.  Framing follows ``http.server``: HTTP/1.1 connections stay
open unless the client sends ``Connection: close``, HTTP/1.0 ones close
unless it sends ``Connection: keep-alive``.  ``Expect: 100-continue`` is
answered with ``100 Continue`` just before a body is read, so a body the
handler refuses (413, 400) is never invited.  A body the handler never
reads (rollback, an unknown POST route, a GET carrying a
``Content-Length``) is not drained: the answer carries
``Connection: close`` and the connection ends, so the leftover bytes
never parse as the next request.  A request the loop cannot
frame answers JSON and closes the connection: ``414`` for a request line
past :data:`MAX_LINE` bytes, ``431`` for a longer header line or more
than :data:`MAX_HEADERS` headers, ``400`` for a malformed request or
header line (HTTP/0.9 included), ``505`` for HTTP versions other than
1.0 and 1.1, and ``501`` for methods other than GET and POST.

Every response carries an ``x-borges-trace-id`` header: the trace ID of
the client's ``traceparent`` when one was supplied (we continue their
trace), otherwise a freshly minted one.  The same ID appears in the
sampled ``http.access`` event log and — for requests over the exemplar
threshold — in ``/v1/admin/exemplars`` with the request's span tree.

Binding ``port=0`` picks an ephemeral port (the bound port is exposed as
``server.port``), which is how the tests and the CI smoke job run many
servers without colliding.  ``stop()`` is a graceful shutdown: the accept
loop exits, in-flight handlers finish, the socket closes.

Overload answers ride on the service's admission gate: a shed request
gets ``429`` with a ``Retry-After`` header, a request whose deadline
expired while queued gets ``503``.  Request bodies are bounded —
``Content-Length`` past :data:`MAX_CONTENT_LENGTH` or a batch past
:data:`MAX_BATCH_ASNS` answers ``413`` without reading the payload, and
malformed/missing framing headers answer ``400`` instead of stalling the
handler thread on a read that can never complete.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from ..errors import (
    DeadlineExceededError,
    NoSnapshotError,
    OverloadedError,
    RollbackUnavailableError,
    SnapshotIntegrityError,
    UnknownASNError,
    UnknownGenerationError,
    UnknownOrgError,
)
from ..obs import Tracer, get_event_log, render_prometheus
from ..obs.context import (
    TRACE_RESPONSE_HEADER,
    TRACEPARENT_HEADER,
    new_trace_context,
    parse_traceparent,
    reset_trace_context,
    set_trace_context,
)
from .service import QueryService

#: Largest request body accepted by ``POST /v1/batch`` (bytes).
MAX_CONTENT_LENGTH = 1 << 20

#: Most ASNs accepted in one batch lookup.
MAX_BATCH_ASNS = 1024

#: Largest ``/v1/search`` result count.  Every distinct ``(q, limit)``
#: pair is one entry in the service's response cache, so an unbounded
#: limit would let one client pin a full result list per entry.
MAX_SEARCH_LIMIT = 100

#: Longest request or header line accepted, in bytes (as ``http.server``).
MAX_LINE = 65536

#: Most header lines accepted in one request (as ``http.client``).
MAX_HEADERS = 100

_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_METHODS = ("GET", "POST")
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")


class _BadParam(ValueError):
    """A malformed query parameter, carrying the offending field name."""

    def __init__(self, name: str, raw: str) -> None:
        super().__init__(f"parameter {name!r} must be an integer, got {raw!r}")
        self.name = name
        self.raw = raw


class _ProtocolError(Exception):
    """A request the loop cannot frame: answered, then the connection closed."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Headers(dict):
    """Request headers keyed by lower-case name; ``get`` ignores case."""

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


def _endpoint_for(path: str) -> str:
    """Classify a request path into the access-log endpoint label."""
    if path.startswith("/v1/asn/"):
        return "asn"
    if path.startswith("/v1/org/"):
        return "org"
    if path == "/v1/siblings":
        return "siblings"
    if path == "/v1/search":
        return "search"
    if path == "/v1/diff":
        return "diff"
    if path == "/v1/batch":
        return "batch"
    if path == "/v1/admin/rollback":
        return "rollback"
    if path == "/v1/admin/watch":
        return "watch"
    if path == "/v1/admin/slo":
        return "slo"
    if path == "/v1/admin/exemplars":
        return "exemplars"
    if path == "/healthz":
        return "health"
    if path == "/metrics":
        return "metrics"
    return "unknown"


def _make_handler(service: QueryService):
    registry = service.registry
    # One ``serve_http_requests_total`` child per status code, resolved
    # on first use instead of a registry lookup (lock + label sort) per
    # request.  A racing first use resolves the same child twice.
    request_counters: Dict[int, object] = {}
    date_cache: Tuple[int, str] = (0, "")

    def http_date() -> str:
        """The ``Date`` header value, formatted once per second."""
        nonlocal date_cache
        now = int(time.time())
        cached = date_cache
        if cached[0] != now:
            cached = date_cache = (now, formatdate(now, usegmt=True))
        return cached[1]

    class Handler(socketserver.StreamRequestHandler):
        # A response is one send, but ``100 Continue`` goes out before
        # it; with Nagle on, the final answer would wait out the
        # client's delayed ACK (~40 ms) behind that interim one.
        disable_nagle_algorithm = True

        # Per-request state installed by the request loop.  A handler
        # instance serves one connection's requests sequentially, so
        # plain instance attributes are race-free.
        headers: _Headers
        close_connection = True
        _expect_continue = False
        _unread_body = False
        _trace_context = None
        _status = 0
        _admission = "admitted"

        # -- the request loop ------------------------------------------

        def handle(self) -> None:
            """Answer this connection's requests in order until it closes."""
            while True:
                try:
                    request = self._read_request()
                except _ProtocolError as exc:
                    self.close_connection = True
                    self._send_error(exc.code, str(exc))
                    return
                if request is None:
                    return
                method, target, self.headers = request
                self._dispatch(method, target)
                if self.close_connection:
                    return

        def _read_request(self) -> Optional[Tuple[str, str, _Headers]]:
            """The next request's method, target and headers.

            ``None`` means the client closed the connection (or sent a
            blank request line, which ``http.server`` also closes on).
            Sets ``close_connection``, ``_expect_continue`` and
            ``_unread_body`` from the version and headers; raises
            :class:`_ProtocolError` for a request that cannot be framed.
            """
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                raise _ProtocolError(
                    414, f"request line longer than {MAX_LINE} bytes"
                )
            text = line.decode("iso-8859-1")
            words = text.split()
            if not words:
                return None
            if len(words) != 3:
                raise _ProtocolError(
                    400, f"bad request line {text.rstrip()[:200]!r}"
                )
            method, target, version = words
            if version not in _VERSIONS:
                raise _ProtocolError(
                    505 if version.startswith("HTTP/") else 400,
                    f"unsupported HTTP version {version!r}",
                )
            if method not in _METHODS:
                raise _ProtocolError(501, f"unsupported method {method!r}")
            headers = self._read_headers()
            if headers is None:
                return None
            connection = headers.get("connection", "").lower()
            self.close_connection = connection == "close" or (
                version == "HTTP/1.0" and connection != "keep-alive"
            )
            self._expect_continue = (
                version == "HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"
            )
            self._unread_body = (
                headers.get("content-length", "0") != "0"
                or "transfer-encoding" in headers
            )
            if target.startswith("//"):
                # As http.server: a leading '//' is not a network path.
                target = "/" + target.lstrip("/")
            return method, target, headers

        def _read_headers(self) -> Optional[_Headers]:
            """Header lines up to the blank line; ``None`` at EOF."""
            headers = _Headers()
            for _ in range(MAX_HEADERS + 1):
                line = self.rfile.readline(MAX_LINE + 1)
                if len(line) > MAX_LINE:
                    raise _ProtocolError(
                        431, f"header line longer than {MAX_LINE} bytes"
                    )
                if line in (b"\r\n", b"\n"):
                    return headers
                if not line:
                    return None
                text = line.decode("iso-8859-1")
                name, colon, value = text.partition(":")
                if not colon or not name or name.strip() != name:
                    raise _ProtocolError(
                        400, f"malformed header line {text.rstrip()[:200]!r}"
                    )
                # The first of repeated headers wins, as with email.parser.
                headers.setdefault(name.lower(), value.strip())
            raise _ProtocolError(431, f"more than {MAX_HEADERS} headers")

        # -- plumbing --------------------------------------------------

        def _write(
            self,
            code: int,
            content_type: str,
            body: bytes,
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """Frame one response and send it in a single write.

            A request body still unread when its answer goes out (a
            rollback, an unknown POST route, a GET with a body) would be
            parsed as the next request line, so the connection closes.
            """
            if self._unread_body:
                self.close_connection = True
            head = (
                f"{_STATUS_LINES[code]}Server: borges-serve\r\n"
                f"Date: {http_date()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if self._trace_context is not None:
                head += (
                    f"{TRACE_RESPONSE_HEADER}: "
                    f"{self._trace_context.trace_id}\r\n"
                )
            for name, value in (extra_headers or {}).items():
                head += f"{name}: {value}\r\n"
            if self.close_connection:
                head += "Connection: close\r\n"
            self.wfile.write((head + "\r\n").encode("latin-1") + body)
            self._status = code

        def _send_json(
            self,
            code: int,
            payload: dict,
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self._send_body(
                code, json.dumps(payload).encode("utf-8"), extra_headers
            )

        def _send_body(
            self,
            code: int,
            body: bytes,
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            """Send a JSON *body* as it is (the service's cached bytes)."""
            self._write(code, "application/json", body, extra_headers)
            counter = request_counters.get(code)
            if counter is None:
                counter = request_counters[code] = registry.counter(
                    "serve_http_requests_total",
                    "HTTP requests by status code",
                    code=code,
                )
            counter.inc()

        def _send_error(self, code: int, message: str) -> None:
            self._send_json(code, {"error": message})

        def _send_overloaded(self, exc: OverloadedError) -> None:
            # Retry-After is integer seconds on the wire; the JSON body
            # keeps the precise hint for clients that can use it.
            self._send_json(
                429,
                {
                    "error": "overloaded, retry later",
                    "retry_after": round(exc.retry_after, 3),
                },
                extra_headers={
                    "Retry-After": str(max(1, math.ceil(exc.retry_after)))
                },
            )

        def _int_param(self, params: dict, name: str) -> Optional[int]:
            values = params.get(name)
            if not values:
                return None
            try:
                return int(values[0])
            except (ValueError, TypeError):
                raise _BadParam(name, values[0]) from None

        # -- routes ----------------------------------------------------

        def _dispatch(self, method: str, target: str) -> None:
            """Trace, route, answer, and account for one request.

            The trace context comes from the client's ``traceparent``
            (we continue their trace one hop down) or is freshly minted;
            it lives in the handler thread's contextvar for the request's
            duration so the event log and span tracer pick it up without
            plumbing.  Every response carries the trace ID back to the
            client; the finally block writes the sampled access-log
            event and offers slow requests to the exemplar store with
            their full span tree.
            """
            path, _, query = target.partition("?")
            path = path.rstrip("/") or "/"
            params = parse_qs(query) if query else {}
            endpoint = _endpoint_for(path)
            incoming = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
            context = (
                incoming.child() if incoming is not None
                else new_trace_context()
            )
            token = set_trace_context(context)
            self._trace_context = context
            self._status = 0
            self._admission = "admitted"
            # A fresh per-request tracer: its span tree is either handed
            # to the exemplar store or dropped with the request, so the
            # process-global tracer's root list never grows with traffic.
            tracer = Tracer()
            started = time.perf_counter()
            try:
                with tracer.span(
                    f"http.{endpoint}", method=method, path=path
                ) as root:
                    self._route(method, path, params)
                    root.set_attribute("status", self._status)
            finally:
                elapsed = time.perf_counter() - started
                self._observe(method, path, endpoint, elapsed, tracer)
                self._trace_context = None
                reset_trace_context(token)

        def _route(self, method: str, path: str, params: dict) -> None:
            """Dispatch to the endpoint body; always answers the client."""
            try:
                if method == "GET":
                    if path.startswith("/v1/asn/"):
                        self._handle_asn(path[len("/v1/asn/"):], params)
                    elif path.startswith("/v1/org/"):
                        self._handle_org(path[len("/v1/org/"):])
                    elif path == "/v1/siblings":
                        self._handle_siblings(params)
                    elif path == "/v1/search":
                        self._handle_search(params)
                    elif path == "/v1/diff":
                        self._handle_diff(params)
                    elif path == "/v1/admin/watch":
                        self._handle_watch()
                    elif path == "/v1/admin/slo":
                        self._handle_slo()
                    elif path == "/v1/admin/exemplars":
                        self._handle_exemplars()
                    elif path == "/healthz":
                        self._handle_health()
                    elif path == "/metrics":
                        self._handle_metrics()
                    else:
                        self._send_error(404, f"no route {path}")
                else:
                    if path == "/v1/batch":
                        self._handle_batch()
                    elif path == "/v1/admin/rollback":
                        self._handle_rollback()
                    else:
                        self._send_error(404, f"no route {path}")
            except _BadParam as exc:
                # Malformed input is the client's 400, never our 500.
                self._send_error(400, str(exc))
            except OverloadedError as exc:
                self._admission = "shed"
                self._send_overloaded(exc)
            except DeadlineExceededError as exc:
                self._admission = "deadline"
                self._send_error(503, str(exc))
            except NoSnapshotError:
                self._send_error(503, "no mapping snapshot loaded")
            except Exception as exc:  # noqa: BLE001 — a handler crash
                # must answer the client, not silently drop the socket.
                get_event_log().emit(
                    "http.handler_error",
                    severity="error",
                    path=path,
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                )
                self._send_error(500, f"internal error: {exc}")

        def _observe(
            self,
            method: str,
            path: str,
            endpoint: str,
            elapsed: float,
            tracer: Tracer,
        ) -> None:
            """Access-log event + exemplar offer for a finished request."""
            snapshot = service.store.current_or_none()
            get_event_log().emit(
                "http.access",
                sample=service.access_log_sample,
                method=method,
                path=path,
                endpoint=endpoint,
                status=self._status,
                admission=self._admission,
                generation=(
                    snapshot.generation if snapshot is not None else 0
                ),
                latency_ms=round(elapsed * 1e3, 3),
            )
            exemplars = service.exemplars
            if exemplars is not None and elapsed >= exemplars.threshold:
                exemplars.offer(
                    endpoint=endpoint,
                    status=self._status,
                    latency=elapsed,
                    trace_id=self._trace_context.trace_id,
                    spans=tracer.to_dicts(),
                )

        # -- endpoint bodies -------------------------------------------

        def _read_body(self) -> Optional[bytes]:
            """The request body, or ``None`` after answering 400/413.

            ``Content-Length`` is validated *before* any read: a missing,
            non-integer or negative value previously reached
            ``rfile.read`` — where ``-1`` means read-to-EOF and stalls
            the handler thread on a keep-alive connection until the
            client goes away.  Oversized bodies are refused without
            reading; the connection is closed since the unread payload
            would desync the next keep-alive request.
            """
            raw = self.headers.get("Content-Length")
            if raw is None:
                self.close_connection = True
                self._send_error(400, "missing Content-Length header")
                return None
            try:
                length = int(raw)
            except ValueError:
                self.close_connection = True
                self._send_error(
                    400, f"Content-Length must be an integer, got {raw!r}"
                )
                return None
            if length < 0:
                self.close_connection = True
                self._send_error(400, f"negative Content-Length: {length}")
                return None
            if length > MAX_CONTENT_LENGTH:
                self.close_connection = True
                self._send_error(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_CONTENT_LENGTH}-byte limit",
                )
                return None
            if self._expect_continue:
                self._expect_continue = False
                self.wfile.write(_CONTINUE)
            self._unread_body = False
            return self.rfile.read(length)

        def _handle_batch(self) -> None:
            body = self._read_body()
            if body is None:
                return
            try:
                document = json.loads(body or b"{}")
            except ValueError as exc:
                self._send_error(400, f"request body is not JSON: {exc}")
                return
            asns = document.get("asns") if isinstance(document, dict) else None
            if not isinstance(asns, list):
                self._send_error(400, "body must be {'asns': [...]}")
                return
            if len(asns) > MAX_BATCH_ASNS:
                self._send_error(
                    413,
                    f"batch of {len(asns)} ASNs exceeds the "
                    f"{MAX_BATCH_ASNS}-ASN limit",
                )
                return
            try:
                body = service.batch_lookup_body(int(a) for a in asns)
            except (ValueError, TypeError) as exc:
                self._send_error(400, f"bad batch request: {exc}")
                return
            self._send_body(200, body)

        def _handle_rollback(self) -> None:
            try:
                self._send_json(200, service.rollback())
            except RollbackUnavailableError as exc:
                self._send_error(409, str(exc))

        def _handle_asn(self, raw: str, params: dict) -> None:
            try:
                asn = int(raw)
            except ValueError:
                self._send_error(400, f"not an ASN: {raw!r}")
                return
            gen = self._int_param(params, "gen")
            try:
                self._send_body(200, service.lookup_asn_body(asn, gen=gen))
            except UnknownASNError:
                self._send_error(404, f"unknown ASN {asn}")
            except UnknownGenerationError as exc:
                self._send_error(404, str(exc))
            except SnapshotIntegrityError as exc:
                # A corrupt archive entry has just been quarantined; the
                # generation is gone, which is a 404, not an outage.
                self._send_error(404, f"generation unreadable: {exc}")

        def _handle_diff(self, params: dict) -> None:
            from_gen = self._int_param(params, "from")
            to_gen = self._int_param(params, "to")
            if from_gen is None or to_gen is None:
                self._send_error(400, "need ?from=&to= generation numbers")
                return
            try:
                self._send_body(
                    200, service.generation_diff_body(from_gen, to_gen)
                )
            except UnknownGenerationError as exc:
                self._send_error(404, str(exc))
            except SnapshotIntegrityError as exc:
                self._send_error(404, f"generation unreadable: {exc}")

        def _handle_watch(self) -> None:
            status = service.watch_status()
            if status is None:
                self._send_error(404, "no watch daemon attached")
                return
            self._send_json(200, status)

        def _handle_org(self, org_id: str) -> None:
            if not org_id:
                self._send_error(400, "missing organization id")
                return
            try:
                self._send_body(200, service.lookup_org_body(org_id))
            except UnknownOrgError:
                self._send_error(404, f"unknown organization {org_id!r}")

        def _handle_siblings(self, params: dict) -> None:
            a = self._int_param(params, "a")
            b = self._int_param(params, "b")
            asn = self._int_param(params, "asn")
            try:
                if asn is not None:
                    self._send_body(200, service.siblings_body(asn))
                elif a is not None and b is not None:
                    self._send_body(200, service.siblings_body(a, b))
                else:
                    self._send_error(400, "need ?a=&b= or ?asn=")
            except UnknownASNError as exc:
                self._send_error(404, str(exc))

        def _handle_search(self, params: dict) -> None:
            query = (params.get("q") or [""])[0]
            if not query.strip():
                self._send_error(400, "missing ?q=")
                return
            limit = self._int_param(params, "limit")
            if limit is not None and limit > MAX_SEARCH_LIMIT:
                self._send_error(
                    400,
                    f"parameter 'limit' must be at most {MAX_SEARCH_LIMIT}, "
                    f"got {limit}",
                )
                return
            self._send_body(
                200,
                service.search_body(
                    query, limit=10 if limit is None else limit
                ),
            )

        def _handle_health(self) -> None:
            ready, body = service.health()
            self._send_json(200 if ready else 503, body)

        def _handle_slo(self) -> None:
            if service.slo is None:
                self._send_error(404, "no SLO tracker configured")
                return
            self._send_json(200, service.slo.snapshot())

        def _handle_exemplars(self) -> None:
            if service.exemplars is None:
                self._send_error(404, "no exemplar store configured")
                return
            store = service.exemplars
            self._send_json(
                200,
                {"stats": store.stats(), "exemplars": store.exemplars()},
            )

        def _handle_metrics(self) -> None:
            # Self-metrics: the scrape counter increments *before* the
            # render so every exposition includes its own scrape; the
            # render-time observation lands in the next one.
            registry.counter(
                "serve_metrics_scrapes_total",
                "Prometheus exposition requests served",
            ).inc()
            render_started = time.perf_counter()
            body = render_prometheus(registry).encode("utf-8")
            registry.histogram(
                "serve_metrics_render_seconds",
                "Time spent rendering the Prometheus exposition",
            ).observe(time.perf_counter() - render_started)
            self._write(200, "text/plain; version=0.0.4", body)

    return Handler


class _ThreadingServer(socketserver.ThreadingTCPServer):
    """Accept loop with one daemon handler thread per connection."""

    allow_reuse_address = True
    daemon_threads = True


class _ReusePortServer(_ThreadingServer):
    """A :class:`_ThreadingServer` that binds with ``SO_REUSEPORT``.

    Multiple worker processes bind+listen on the *same* address and the
    kernel load-balances accepted connections across them — the fan-in
    mechanism of the multi-worker serve tier.  Set before ``bind`` (not
    via ``allow_reuse_port``, which only exists on newer Pythons).
    """

    def server_bind(self) -> None:
        if hasattr(socket, "SO_REUSEPORT"):
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class QueryServer:
    """Lifecycle wrapper: bind, serve in a daemon thread, stop cleanly."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
    ) -> None:
        self.service = service
        server_cls = _ReusePortServer if reuse_port else _ThreadingServer
        self._httpd = server_cls((host, port), _make_handler(service))
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="borges-serve",
            daemon=True,
        )
        self._thread.start()
        get_event_log().emit("http.listen", url=self.url)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, join the accept loop."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def serve_until_interrupt(self) -> None:
        """Foreground mode for the CLI: Ctrl-C or SIGTERM stops the server.

        Handlers are installed explicitly so a daemonized ``borges serve``
        (where SIGINT may start out ignored) still shuts down on
        ``kill``; previous handlers are restored on exit.
        """
        import signal

        def _interrupt(signum: int, frame: object) -> None:
            raise KeyboardInterrupt

        previous = {
            sig: signal.signal(sig, _interrupt)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self._httpd.server_close()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
