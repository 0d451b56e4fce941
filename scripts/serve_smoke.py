#!/usr/bin/env python3
"""CI smoke test for the serve subsystem.

Default mode boots the HTTP query server on an ephemeral port over a
small universe, hits every endpoint (including the 400/404 contracts),
checks that a cache hit sends the same bytes as the miss before it,
performs a hot snapshot swap from a freshly-written release file while
background readers are active, asserts zero failed requests, and shuts
the server down cleanly.  Exits non-zero on the first violated
expectation.

``--chaos corrupt-snapshot`` replays the swap with a fault injector
that corrupts every snapshot file read: the swap must fail closed (old
generation keeps serving, zero 5xx, and cached and fresh answers alike
say ``stale``), the input file must be quarantined, and
``POST /v1/admin/rollback`` must restore the last-known-good generation.

``--chaos thundering-herd`` fires synchronized waves of concurrent
clients at a deliberately tiny admission gate: every response must be
200/404/429 — never a 5xx — and the rollback path must work under
that load.  The herd also drives the availability SLO: its burn-rate
alert must be *firing* in ``/v1/admin/slo`` right after the waves and
must *clear* once a healthy trickle outlives the fast window.

The default mode additionally proves the trace plumbing end to end: a
client-supplied W3C ``traceparent`` must round-trip into the
``x-borges-trace-id`` response header and be joinable in the access
log.  Its wire-framing block drives the request loop over raw sockets
the way curl and proxies do: a pipelined pair answered in order on one
connection, ``Connection: close`` honoured, a rollback whose body is
never read answered once and then closed (the leftover bytes must not
become the pipelined next request), an ``Expect: 100-continue`` batch
POST, and the ``/metrics`` content type.

Run:  PYTHONPATH=src python scripts/serve_smoke.py [--chaos PROFILE]
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import UniverseConfig  # noqa: E402
from repro.core import BorgesPipeline  # noqa: E402
from repro.core.release import save_mapping_as2org  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    SLOConfig,
    SLOTracker,
    use_event_log,
)
from repro.resilience import PROFILES, FaultInjector  # noqa: E402
from repro.serve import (  # noqa: E402
    AdmissionController,
    AdmissionLimits,
    QueryServer,
    QueryService,
)
from repro.serve.store import QUARANTINE_SUFFIX, SnapshotStore  # noqa: E402
from repro.universe import generate_universe  # noqa: E402


def fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def fetch_raw(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read()


def fetch_traced(url: str, traceparent: str):
    """GET with a ``traceparent`` header; returns (status, body, headers)."""
    request = urllib.request.Request(
        url, headers={"traceparent": traceparent}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read()), response.headers


def post(url: str, payload: dict):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def read_to_close(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes the connection."""
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def split_responses(data: bytes) -> list:
    """Raw response bytes as ``[(status, lower-cased headers, body)]``."""
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


def raw_exchange(host: str, port: int, head: str, body: bytes = b"") -> tuple:
    """Send *head* on a fresh connection; ``(interim, responses)``.

    With a *body*, *head* carries ``Expect: 100-continue``: the body goes
    out only after the interim answer, which is returned as *interim*.
    The server must close the connection after the last response.
    """
    interim = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1"))
        if body:
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                if not chunk:
                    break
                interim += chunk
            sock.sendall(body)
        return interim, split_responses(read_to_close(sock))


def expect(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        sys.exit(f"serve smoke failed: {label}")


def _small_world():
    """(universe, mapping) shared by every smoke mode."""
    print("building universe + running pipeline...")
    universe = generate_universe(
        UniverseConfig(seed=5, n_organizations=300, total_users=20_000_000)
    )
    result = BorgesPipeline(universe.whois, universe.pdb, universe.web).run()
    return universe, result.mapping


def chaos_corrupt_snapshot() -> int:
    """Corrupt every snapshot file read; serving must never blink."""
    universe, mapping = _small_world()
    registry = MetricsRegistry()
    injector = FaultInjector(
        PROFILES["corrupt-snapshot"], seed=13, registry=registry
    )
    store = SnapshotStore(registry=registry, injector=injector)
    service = QueryService(store=store, registry=registry, injector=injector)
    store.load_from_mapping(mapping, whois=universe.whois, label="gen1")

    with QueryServer(service) as server:
        base = server.url
        print(f"server on {base} (corrupt-snapshot profile)")
        asns = store.current().index.asns()[:100]
        statuses: list = []
        stop = threading.Event()

        def reader() -> None:
            i = 0
            while not stop.is_set():
                code, _ = fetch(f"{base}/v1/asn/{asns[i % len(asns)]}")
                statuses.append(code)
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()

        print("corrupt swap under live readers:")
        with TemporaryDirectory() as tmp:
            release_path = Path(tmp) / "release.jsonl"
            save_mapping_as2org(mapping, universe.whois, release_path)
            swapped = store.try_swap(
                lambda: store.load_from_release_file(release_path),
                label="chaos release",
            )
            expect(swapped is None, "corrupt swap failed closed")
            quarantined = release_path.with_name(
                release_path.name + QUARANTINE_SUFFIX
            )
            expect(
                not release_path.exists() and quarantined.exists(),
                "corrupt input quarantined",
            )
        expect(store.current().generation == 1, "old generation still active")
        code, body = fetch(f"{base}/healthz")
        expect(
            code == 200 and body["status"] == "degraded",
            "healthz reports degraded (stale)",
        )
        # asns[0] was cached before the failed swap; asking twice makes
        # the second answer a hit after it.  The last ASN no reader asked
        # for is a miss.  All three must say stale.
        fresh = store.current().index.asns()[-1]
        answers = [
            fetch(f"{base}/v1/asn/{asn}") for asn in (asns[0], asns[0], fresh)
        ]
        expect(
            all(code == 200 and body.get("stale") is True
                for code, body in answers),
            "cached and fresh answers both carry stale after the failed swap",
        )

        # A good in-memory generation (chaos only bites file loads),
        # then roll back to gen1 over the admin endpoint.
        store.load_from_mapping(mapping, whois=universe.whois, label="gen2")
        code, body = post(f"{base}/v1/admin/rollback", {})
        expect(code == 200, "rollback endpoint answered 200")
        expect(body["generation"] == 3, "rollback installed a new generation")
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        expect(
            all(status in (200, 404) for status in statuses),
            f"zero 5xx across {len(statuses)} chaos-mode requests",
        )
        code, body = fetch(f"{base}/v1/asn/{asns[0]}")
        expect(
            code == 200 and body["generation"] == 3,
            "post-rollback answers from the restored generation",
        )
    print("corrupt-snapshot chaos smoke passed")
    return 0


def chaos_thundering_herd() -> int:
    """Synchronized client waves against a tiny gate: shed, never 5xx."""
    universe, mapping = _small_world()
    profile = PROFILES["thundering-herd"]
    registry = MetricsRegistry()
    injector = FaultInjector(profile, seed=17, registry=registry)
    admission = AdmissionController(
        AdmissionLimits(max_inflight=1, max_queue=1, default_deadline=2.0),
        registry=registry,
    )
    store = SnapshotStore(registry=registry)
    # Tiny SLO windows so the burn-rate alert can fire and clear inside
    # a CI-sized smoke run instead of 5m/1h.
    slo = SLOTracker(
        SLOConfig(fast_window_seconds=2.0, slow_window_seconds=10.0),
        registry=registry,
    )
    service = QueryService(
        store=store,
        registry=registry,
        admission=admission,
        injector=injector,
        slo=slo,
    )
    store.load_from_mapping(mapping, whois=universe.whois, label="gen1")

    with QueryServer(service) as server:
        base = server.url
        workers = profile.herd_multiplier * admission.limits.max_inflight
        waves = 25
        print(
            f"server on {base} (thundering-herd: {workers} clients x "
            f"{waves} waves against a 1-in-flight/1-queued gate)"
        )
        asns = store.current().index.asns()[:100]
        statuses: list = []
        lock = threading.Lock()
        barrier = threading.Barrier(workers)

        def client(index: int) -> None:
            local = []
            for wave in range(waves):
                try:
                    barrier.wait(timeout=30.0)
                except threading.BrokenBarrierError:
                    break
                code, _ = fetch(
                    f"{base}/v1/asn/{asns[(index + wave) % len(asns)]}"
                )
                local.append(code)
            with lock:
                statuses.extend(local)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)

        counts = {code: statuses.count(code) for code in sorted(set(statuses))}
        print(f"  response codes: {counts}")
        expect(len(statuses) == workers * waves, "every client finished")
        expect(
            all(status < 500 for status in statuses),
            "zero 5xx under thundering herd",
        )
        expect(counts.get(429, 0) > 0, "the gate shed under the herd")

        code, body = fetch(f"{base}/v1/admin/slo")
        expect(code == 200, "slo admin endpoint answered")
        expect(
            body["availability"]["alert"]["state"] == "firing",
            "availability burn-rate alert firing after the herd",
        )

        # A healthy trickle until the fast window rolls past the herd's
        # errors: the alert must clear on its own, bounded by a timeout.
        cleared = False
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            for i in range(5):
                fetch(f"{base}/v1/asn/{asns[i]}")
            code, body = fetch(f"{base}/v1/admin/slo")
            if body["availability"]["alert"]["state"] == "clear":
                cleared = True
                break
            time.sleep(0.25)
        expect(cleared, "availability alert cleared after recovery")

        code, body = fetch(f"{base}/healthz")
        expect(code == 200 and body["status"] == "ok", "healthz ok after herd")

        # Rollback still works while the gate is this tight (admin calls
        # are never admission-gated).
        store.load_from_mapping(mapping, whois=universe.whois, label="gen2")
        code, body = post(f"{base}/v1/admin/rollback", {})
        expect(code == 200 and body["generation"] == 3, "rollback under load")
    print("thundering-herd chaos smoke passed")
    return 0


def main() -> int:
    universe, mapping = _small_world()

    service = QueryService()
    service.store.load_from_mapping(
        mapping, whois=universe.whois, pdb=universe.pdb
    )
    with use_event_log() as events, QueryServer(service) as server:
        base = server.url
        print(f"server on {base}")
        index = service.store.current().index
        asn = index.asns()[0]
        multi = next(o for o in (index.org_of(a) for a in index.asns())
                     if o.size > 1)
        a, b = multi.members[:2]

        print("endpoint contracts:")
        code, body = fetch(f"{base}/healthz")
        expect(code == 200 and body["status"] == "ok", "healthz ok")
        code, body = fetch(f"{base}/v1/asn/{asn}")
        expect(code == 200 and body["asn"] == asn, "asn lookup")
        last = index.asns()[-1]
        miss, hit = (fetch_raw(f"{base}/v1/asn/{last}") for _ in range(2))
        expect(
            miss == hit
            and miss == json.dumps(service.lookup_asn(last)).encode("utf-8"),
            "a cache hit sends the miss's bytes, json.dumps of the answer",
        )
        expect(fetch(f"{base}/v1/asn/999999999")[0] == 404, "asn 404")
        expect(fetch(f"{base}/v1/asn/banana")[0] == 400, "asn 400")
        code, body = fetch(f"{base}/v1/org/{multi.org_id}")
        expect(code == 200 and body["size"] == multi.size, "org lookup")
        expect(fetch(f"{base}/v1/org/BORGES-NOPE")[0] == 404, "org 404")
        code, body = fetch(f"{base}/v1/siblings?a={a}&b={b}")
        expect(code == 200 and body["siblings"] is True, "siblings verdict")
        expect(fetch(f"{base}/v1/siblings")[0] == 400, "siblings 400")
        token = multi.name.split()[0].lower()
        code, body = fetch(f"{base}/v1/search?q={token}")
        expect(code == 200 and isinstance(body["results"], list), "search")
        expect(fetch(f"{base}/v1/search")[0] == 400, "search 400")

        print("trace propagation:")
        trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
        code, _, headers = fetch_traced(
            f"{base}/v1/asn/{asn}", f"00-{trace_id}-00f067aa0ba902b7-01"
        )
        expect(
            code == 200 and headers.get("x-borges-trace-id") == trace_id,
            "traceparent round-trips into x-borges-trace-id",
        )
        # The access event is emitted after the response bytes are on the
        # wire, so give the handler thread a moment to finish its finally.
        access: list = []
        deadline = time.monotonic() + 5.0
        while not access and time.monotonic() < deadline:
            access = [
                event
                for event in events.events("http.access")
                if event.get("trace_id") == trace_id
            ]
            if not access:
                time.sleep(0.01)
        expect(
            len(access) == 1
            and access[0]["endpoint"] == "asn"
            and access[0]["status"] == 200,
            "trace id joins the access log",
        )

        print("wire framing:")
        other = index.asns()[1]
        _, responses = raw_exchange(
            server.host, server.port,
            f"GET /v1/asn/{asn} HTTP/1.1\r\nHost: smoke\r\n\r\n"
            f"GET /v1/asn/{other} HTTP/1.1\r\nHost: smoke\r\n"
            "Connection: close\r\n\r\n",
        )
        expect(
            [(code, json.loads(body)["asn"]) for code, _, body in responses]
            == [(200, asn), (200, other)],
            "pipelined pair answered in order on one connection",
        )
        _, responses = raw_exchange(
            server.host, server.port,
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        expect(
            [code for code, _, _ in responses] == [200]
            and responses[0][1].get("connection") == "close",
            "Connection: close answered once, then closed",
        )
        # Rollback never reads its body.  Left on the connection, "{}"
        # would prefix the pipelined GET's request line; the server must
        # answer the rollback (409: one generation, nothing to restore)
        # and close instead of answering the leftover bytes.
        _, responses = raw_exchange(
            server.host, server.port,
            "POST /v1/admin/rollback HTTP/1.1\r\nHost: smoke\r\n"
            "Content-Length: 2\r\n\r\n{}"
            "GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n",
        )
        expect(
            [code for code, _, _ in responses] == [409]
            and responses[0][1].get("connection") == "close",
            "rollback with an unread body answered once, then closed",
        )
        batch = json.dumps({"asns": [asn, other]}).encode()
        interim, responses = raw_exchange(
            server.host, server.port,
            f"POST /v1/batch HTTP/1.1\r\nContent-Length: {len(batch)}\r\n"
            "Content-Type: application/json\r\nExpect: 100-continue\r\n"
            "Connection: close\r\n\r\n",
            batch,
        )
        expect(
            interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            and [code for code, _, _ in responses] == [200]
            and [r["asn"] for r in json.loads(responses[0][2])["results"]]
            == [asn, other],
            "Expect: 100-continue batch POST",
        )
        _, responses = raw_exchange(
            server.host, server.port,
            "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        expect(
            responses[0][1].get("content-type") == "text/plain; version=0.0.4",
            "/metrics content type",
        )

        print("hot swap under live readers:")
        errors = []
        stop = threading.Event()

        def reader() -> None:
            i = 0
            asns = index.asns()[:100]
            while not stop.is_set():
                code, _ = fetch(f"{base}/v1/asn/{asns[i % len(asns)]}")
                if code != 200:
                    errors.append(code)
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        with TemporaryDirectory() as tmp:
            release_path = Path(tmp) / "release.jsonl"
            save_mapping_as2org(mapping, universe.whois, release_path)
            service.store.load_from_release_file(release_path)
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        expect(errors == [], "zero failed requests across the swap")
        code, body = fetch(f"{base}/healthz")
        expect(body["generation"] == 2, "generation bumped to 2")
        code, body = fetch(f"{base}/v1/siblings?a={a}&b={b}")
        expect(
            code == 200 and body["siblings"] is True and body["generation"] == 2,
            "post-swap answers from the new generation",
        )

        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            text = r.read().decode()
        expect("serve_requests_total" in text, "metrics exposition")
        expect("serve_snapshot_swaps_total 2" in text, "swap counter at 2")

    print("graceful shutdown ok")
    stats = service.stats()
    print(f"request totals: {stats['requests']}")
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--chaos",
        choices=("corrupt-snapshot", "thundering-herd"),
        default=None,
        help="run a chaos-profile smoke instead of the default contract sweep",
    )
    args = parser.parse_args()
    if args.chaos == "corrupt-snapshot":
        sys.exit(chaos_corrupt_snapshot())
    elif args.chaos == "thundering-herd":
        sys.exit(chaos_thundering_herd())
    sys.exit(main())
