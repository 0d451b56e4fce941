"""The closed-loop HTTP read mix shared by ``serve`` and ``refresh``.

Each of ``CLIENT_CONNECTIONS`` threads owns one keep-alive connection and
sends its next request only after the previous answer arrived.  The mix
is ~90% ``/v1/asn`` (Zipf s=1.1 over the served ASNs, ~1% of them
planted unknown ASNs that must 404), ~4% ``/v1/org``, ~3%
``/v1/siblings``, ~2% ``/v1/search`` on prefixes of served org names and
~1% ``POST /v1/batch`` of 25 ASNs.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import random
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import CLIENT_CONNECTIONS, Outcome, percentile

ZIPF_S = 1.1
BATCH_SIZE = 25


def org_names(index, asns: Sequence[int], limit: int = 2000) -> List[str]:
    """Names of up to *limit* served orgs, spread over *asns*."""
    return [index.org_of(a).name for a in asns[:: max(1, len(asns) // limit)]]


class Mix:
    """Seeded request generator over one served ASN set.

    Without *org_of* the ``/v1/org`` share goes to ``/v1/asn`` instead
    (org ids are not stable across the universes a refresh alternates).
    Planted unknown ASNs lie above every ASN in *asns* and *known*.
    """

    def __init__(
        self,
        asns: Sequence[int],
        org_of: Optional[Callable[[int], str]],
        names: Sequence[str],
        seed: int,
        known: Sequence[int] = (),
    ) -> None:
        rng = random.Random(seed)
        self.ranked = sorted(asns)
        rng.shuffle(self.ranked)
        weights = itertools.accumulate(
            1.0 / rank ** ZIPF_S for rank in range(1, len(self.ranked) + 1)
        )
        self.cdf = list(weights)
        self.org_of = org_of
        self.names = list(names)
        top = max(max(asns), max(known, default=0))
        self.unknown = list(range(top + 1, top + 200))
        self.seed = seed

    def zipf(self, rng: random.Random) -> int:
        u = rng.random() * self.cdf[-1]
        return self.ranked[bisect.bisect_left(self.cdf, u)]

    def request(self, rng: random.Random) -> Tuple[str, str, str, Optional[bytes], object]:
        """(endpoint, method, path, body, argument) of the next request."""
        u = rng.random()
        if u < 0.90:
            if rng.random() < 1.0 / 90.0:
                asn = rng.choice(self.unknown)
                return "unknown", "GET", f"/v1/asn/{asn}", None, asn
            asn = self.zipf(rng)
            return "asn", "GET", f"/v1/asn/{asn}", None, asn
        if u < 0.94:
            if self.org_of is None:
                asn = self.zipf(rng)
                return "asn", "GET", f"/v1/asn/{asn}", None, asn
            org = self.org_of(self.zipf(rng))
            return "org", "GET", f"/v1/org/{org}", None, org
        if u < 0.97:
            asn = self.zipf(rng)
            return "siblings", "GET", f"/v1/siblings?asn={asn}", None, asn
        if u < 0.99:
            query = self.prefix(rng)
            path = "/v1/search?" + urllib.parse.urlencode({"q": query})
            return "search", "GET", path, None, query
        asns = [self.zipf(rng) for _ in range(BATCH_SIZE)]
        body = json.dumps({"asns": asns}).encode()
        return "batch", "POST", "/v1/batch", body, asns

    def prefix(self, rng: random.Random) -> str:
        """A prefix of a served org name's first word (mostly cache misses)."""
        while True:
            words = [w for w in rng.choice(self.names).split() if w.isalnum()]
            if words and len(words[0]) >= 2:
                word = words[0]
                return word[: rng.randint(2, len(word))]


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after errors."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


#: check(endpoint, argument, status, body) → None when right, else why.
Checker = Callable[[str, object, int, bytes], Optional[str]]


class Samples:
    """Per-request latencies (seconds) by endpoint, from all threads."""

    def __init__(self) -> None:
        self.by_endpoint: Dict[str, List[float]] = {}
        self.lock = threading.Lock()

    def add(self, endpoint: str, latency: float) -> None:
        with self.lock:
            self.by_endpoint.setdefault(endpoint, []).append(latency)

    def all(self) -> List[float]:
        return [v for values in self.by_endpoint.values() for v in values]

    def p50_ms(self, endpoint: Optional[str] = None) -> float:
        values = self.all() if endpoint is None else self.by_endpoint[endpoint]
        return percentile(values, 50) * 1e3

    def tail_ms(self) -> Tuple[float, int]:
        """p99 latency in ms, and the sample count it rests on."""
        values = self.all()
        return percentile(values, 99) * 1e3, len(values)


def drive(
    host: str,
    port: int,
    mix: Mix,
    seconds: float,
    check: Checker,
    outcome: Outcome,
    samples: Samples,
    spans,
    stream: int,
) -> float:
    """Run the closed loop for *seconds*; returns the wall time it took.

    Latency covers send to last body byte; the answer check runs after
    the clock stops.  *stream* separates the random streams of
    successive phases of one run.
    """
    parent = spans.current
    stop_at = time.perf_counter() + seconds

    def worker(index: int) -> None:
        rng = random.Random(mix.seed * 7919 + stream * 101 + index)
        conn = Connection(host, port)
        try:
            while time.perf_counter() < stop_at:
                endpoint, method, path, body, arg = mix.request(rng)
                with spans.span("client.request", parent=parent, endpoint=endpoint):
                    started = time.perf_counter()
                    try:
                        status, payload = conn.request(method, path, body)
                    except (OSError, http.client.HTTPException) as exc:
                        outcome.op(False, f"{path}: {type(exc).__name__}: {exc}")
                        continue
                    latency = time.perf_counter() - started
                samples.add(endpoint, latency)
                problem = check(endpoint, arg, status, payload)
                if problem is None:
                    outcome.op(True)
                else:
                    outcome.op(False, f"{path}: {problem}")
                    if status < 300 or status == 404:
                        # An error status is a failed operation; a
                        # 2xx/404 with the wrong content is a wrong answer.
                        outcome.wrong(f"{method} {path}: {problem}")
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(CLIENT_CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 60)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    return time.perf_counter() - started


def scrape_metrics(host: str, port: int) -> Dict[Tuple[str, Tuple], float]:
    """``GET /metrics`` parsed to {(name, sorted label items): value}."""
    conn = Connection(host, port)
    try:
        status, body = conn.request("GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_prometheus(body.decode())


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple], float]:
    out: Dict[Tuple[str, Tuple], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, rest = head.partition("{")
        labels = []
        if rest:
            for item in rest.rstrip("}").split(","):
                key, _, raw = item.partition("=")
                labels.append((key, raw.strip('"')))
        out[(name, tuple(sorted(labels)))] = float(value)
    return out


def histogram_p50(metrics, name: str, **labels: str) -> float:
    """Median of a Prometheus histogram, interpolated within its bucket
    (as ``histogram_quantile`` does); seconds."""
    buckets = []
    for (metric, items), value in metrics.items():
        if metric != name + "_bucket":
            continue
        found = dict(items)
        if all(found.get(k) == v for k, v in labels.items()):
            bound = found["le"]
            buckets.append((float("inf") if bound == "+Inf" else float(bound), value))
    buckets.sort()
    total = buckets[-1][1]
    if total == 0:
        raise RuntimeError(f"{name}{labels} has no observations")
    rank = total / 2.0
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            return lower_bound + (bound - lower_bound) * (
                (rank - lower_count) / (count - lower_count)
            )
        lower_bound, lower_count = bound, count
    return lower_bound


def metric_sum(metrics, name: str, **labels: str) -> float:
    return sum(
        value
        for (metric, items), value in metrics.items()
        if metric == name
        and all(dict(items).get(k) == v for k, v in labels.items())
    )


def server_layers(metrics, samples: Samples) -> Dict[str, float]:
    """Service/httpd/admission metrics from one ``/metrics`` scrape plus
    the client's own latencies.  A server-side median is left out when
    its endpoint saw no request (a short or starved pass); the caller
    then takes it from another pass."""
    counts = {
        endpoint: metric_sum(metrics, "serve_request_seconds_count", endpoint=endpoint)
        for endpoint in ("asn", "org", "search")
    }
    cacheable = sum(counts.values()) + metric_sum(metrics, "serve_batch_size_sum")
    hits = metric_sum(metrics, "serve_cache_hits_total")
    tail_ms, count = samples.tail_ms()
    layers = {
        "service.cache_hit_ratio": hits / cacheable if cacheable else 0.0,
        "admission.shed": metric_sum(metrics, "serve_requests_total", status="shed"),
        "admission.deadline": metric_sum(
            metrics, "serve_requests_total", status="deadline"
        ),
        "client.read_p99_ms": tail_ms,
        "client.samples": float(count),
    }
    if counts["asn"] and "asn" in samples.by_endpoint:
        asn_p50_ms = histogram_p50(metrics, "serve_request_seconds", endpoint="asn") * 1e3
        layers["service.asn_p50_ms"] = asn_p50_ms
        layers["httpd.overhead_ms"] = samples.p50_ms("asn") - asn_p50_ms
    if counts["search"]:
        layers["service.search_p50_ms"] = histogram_p50(
            metrics, "serve_request_seconds", endpoint="search"
        ) * 1e3
    return layers
