"""Serve-path benches: lookup throughput, batch reads, and hot swaps.

The acceptance bar for the read path: the in-process
:class:`~repro.serve.QueryService` answers ≥ 50k single-ASN lookups per
second against the default synthetic universe under seeded Zipfian
traffic, and a hot snapshot swap completes with zero failed requests
while reader threads are hammering the service.

The observability bench holds the plane to its budget: the fully
instrumented path (trace propagation + SLO tracking + sampled access
log) must stay within ``MAX_TRACED_OVERHEAD`` of the untraced baseline.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.config import UniverseConfig
from repro.core import BorgesPipeline
from repro.obs import EventLog, MetricsRegistry, SLOTracker
from repro.serve import (
    LoadGenerator,
    MappingIndex,
    QueryService,
    WorkerConfig,
    WorkerPool,
    run_pipelined,
)
from repro.universe import generate_universe

LOOKUPS = 100_000
MIN_QPS = 50_000.0

#: Four workers over one shared snapshot must deliver at least this
#: multiple of the single-worker aggregate (asserted only on machines
#: with ≥ 4 cores — a 1-CPU container can't scale anything).
MIN_SCALING_4X = 2.5

#: Tracing + SLO + sampled access log may cost at most this fraction
#: of the untraced throughput (the PR's acceptance bar is 10%).
MAX_TRACED_OVERHEAD = 0.10


@pytest.fixture(scope="module")
def universe():
    return generate_universe(UniverseConfig())


@pytest.fixture(scope="module")
def mapping(universe):
    return BorgesPipeline(universe.whois, universe.pdb, universe.web).run().mapping


@pytest.fixture()
def service(universe, mapping):
    svc = QueryService(registry=MetricsRegistry())
    svc.store.load_from_mapping(
        mapping, whois=universe.whois, pdb=universe.pdb
    )
    return svc


def test_bench_single_asn_lookup_throughput(benchmark, service):
    """Zipfian single-ASN lookups through the full metered service path."""
    generator = LoadGenerator(
        service, service.store.current().index.asns(), seed=17
    )
    report = benchmark.pedantic(
        lambda: generator.run(LOOKUPS), rounds=1, iterations=1
    )
    print(f"\nserve throughput: {report.qps:,.0f} lookups/sec "
          f"({report.requests:,} requests in {report.elapsed_seconds:.3f}s)")
    benchmark.extra_info["qps"] = round(report.qps, 1)
    assert report.ok == LOOKUPS
    assert report.qps >= MIN_QPS


def test_bench_mixed_workload_throughput(benchmark, service):
    """Lookups + sibling checks + 404s — the realistic request mix."""
    generator = LoadGenerator(
        service, service.store.current().index.asns(), seed=23
    )
    report = benchmark.pedantic(
        lambda: generator.run(
            LOOKUPS // 2, sibling_fraction=0.2, unknown_fraction=0.02
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["qps"] = round(report.qps, 1)
    assert report.requests == LOOKUPS // 2
    assert report.qps >= MIN_QPS / 2


def test_bench_batch_lookup(benchmark, service):
    """Batched reads amortize snapshot pinning across 100-ASN pages."""
    asns = service.store.current().index.asns()
    pages = [asns[i : i + 100] for i in range(0, min(len(asns), 5000), 100)]

    def run():
        return sum(len(service.batch_lookup(page)) for page in pages)

    total = benchmark(run)
    assert total == sum(len(p) for p in pages)


def test_bench_traced_overhead_within_budget(benchmark, universe, mapping):
    """Tracing + sampled access log must cost < 10% of untraced QPS.

    Both configurations run the production ``borges serve`` service
    (SLO tracker on — it is on by default and orthogonal to tracing);
    the instrumented one additionally propagates a per-request trace
    context through the load generator, tracks the slowest trace IDs,
    and samples 1% of requests into the structured access log.

    Measurement design: sequential per-config blocks are confounded by
    machine-level throttling (absolute qps on a shared box can halve
    between one block and the next), so the two configurations run as
    *interleaved pairs* against the same warmed service, with the order
    within each pair alternating round to round (a monotonic slowdown
    would otherwise always tax whichever side runs second).  The verdict
    is the minimum per-pair overhead across rounds: throttling can only
    inflate a pair's ratio, while a genuine regression shows up in every
    pair, so the minimum tracks the true cost.
    """
    registry = MetricsRegistry()
    svc = QueryService(
        registry=registry,
        slo=SLOTracker(registry=registry),
        event_log=EventLog(),
        access_log_sample=0.01,
    )
    svc.store.load_from_mapping(
        mapping, whois=universe.whois, pdb=universe.pdb
    )
    generator = LoadGenerator(
        svc, svc.store.current().index.asns(), seed=29
    )
    generator.run(LOOKUPS // 10)  # warm-up, untimed
    generator.run(LOOKUPS // 10, trace=True)

    best = {False: 0.0, True: 0.0}

    def round_pair(traced_first: bool) -> float:
        """One untraced+traced pair; returns the pair's overhead."""
        elapsed = {}
        for traced in ((True, False) if traced_first else (False, True)):
            report = generator.run(LOOKUPS, trace=traced)
            assert report.ok == LOOKUPS
            elapsed[traced] = report.elapsed_seconds
            best[traced] = max(best[traced], report.qps)
        return elapsed[True] / elapsed[False] - 1.0

    overheads = [
        benchmark.pedantic(lambda: round_pair(False), rounds=1, iterations=1)
    ]
    for i in range(1, 8):  # 8 interleaved rounds total
        overheads.append(round_pair(traced_first=bool(i % 2)))

    overhead = min(overheads)
    print(
        f"\nbest untraced {best[False]:,.0f} qps, "
        f"best traced {best[True]:,.0f} qps, min per-pair overhead "
        f"{overhead:+.1%} (budget {MAX_TRACED_OVERHEAD:.0%})"
    )
    benchmark.extra_info["untraced_qps"] = round(best[False], 1)
    benchmark.extra_info["traced_qps"] = round(best[True], 1)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    assert overhead <= MAX_TRACED_OVERHEAD


def test_bench_hot_swap_zero_failed_requests(benchmark, universe, mapping):
    """Swap generations under reader load; every request must succeed."""
    service = QueryService(registry=MetricsRegistry())
    service.store.load_from_mapping(mapping, whois=universe.whois)
    asns = service.store.current().index.asns()[:256]
    errors: list = []
    stop = threading.Event()

    def reader() -> None:
        i = 0
        while not stop.is_set():
            try:
                service.lookup_asn(asns[i % len(asns)])
            except Exception as exc:  # noqa: BLE001 — bench counts failures
                errors.append(exc)
                return
            i += 1

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        benchmark.pedantic(
            lambda: service.store.load_from_mapping(
                mapping, whois=universe.whois
            ),
            rounds=5,
            iterations=1,
        )
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
    service.store.drain(timeout=2.0)
    assert errors == []
    # ≥ 2: the initial load plus at least one benchmarked swap (pedantic
    # rounds collapse to a single call under --benchmark-disable)
    assert service.store.current().generation >= 2


# -- multi-worker tier -------------------------------------------------------


@pytest.fixture(scope="module")
def index(universe, mapping):
    return MappingIndex.build(mapping, whois=universe.whois, pdb=universe.pdb)


@pytest.fixture(scope="module")
def blob(index):
    return index.blob


def test_bench_blob_reader_lookup_throughput(benchmark, index, blob, mapping):
    """Zero-copy lookups over a blob mapped the way a pool worker maps it."""
    reader = MappingIndex(blob)
    asns = index.asns()[:4096]

    def run() -> int:
        hits = 0
        for asn in asns:
            hits += reader.lookup_asn(asn).org.size
        return hits

    expected = sum(len(mapping.cluster_of(asn)) for asn in asns)
    assert benchmark(run) == expected
    benchmark.extra_info["blob_bytes"] = len(blob)


def _drive_pool(pool: WorkerPool, blob: bytes, paths, seconds: float) -> dict:
    """Pipelined load against *pool* with two hot swaps mid-flight.

    The swaps run from a side thread while the pipelined client is
    saturating the workers, so the measured aggregate includes the cost
    of every worker remapping the segment twice — the zero-failed-
    requests assertion is over the *whole* run, swap windows included.
    """
    totals = {"requests": 0, "ok": 0, "errors": 0}
    deadline = time.perf_counter() + seconds
    swaps: list = []

    def swapper() -> None:
        for _ in range(2):
            time.sleep(seconds / 3.0)
            swaps.append(pool.publish(blob))

    swap_thread = threading.Thread(target=swapper)
    started = time.perf_counter()
    swap_thread.start()
    try:
        while time.perf_counter() < deadline:
            result = run_pipelined(pool.url, paths, repeat=1)
            for key in totals:
                totals[key] += result[key]
    finally:
        swap_thread.join(timeout=30.0)
    elapsed = time.perf_counter() - started
    totals["elapsed_seconds"] = elapsed
    totals["qps"] = totals["requests"] / elapsed if elapsed > 0 else 0.0
    totals["swaps"] = len(swaps)
    return totals


def test_bench_worker_pool_aggregate_throughput(
    benchmark, index, blob, tmp_path
):
    """Aggregate machine throughput: ``--workers 4`` vs ``--workers 1``.

    Each pool serves the same shared blob behind one SO_REUSEPORT
    socket; the pipelined raw-socket client measures the server side.
    Two hot swaps land mid-run in each configuration and every request
    must still succeed.  The ≥ 2.5× scaling bar only applies where
    there are cores to scale onto.
    """
    paths = [f"/v1/asn/{asn}" for asn in index.asns()[:512]]
    seconds = 3.0
    results = {}

    def run_both() -> dict:
        for workers in (1, 4):
            config = WorkerConfig(workers=workers, swap_timeout=60.0)
            pool = WorkerPool(config, state_dir=tmp_path / f"pool-{workers}")
            pool.start(blob)
            try:
                run_pipelined(pool.url, paths[:64], repeat=1)  # warm-up
                results[workers] = _drive_pool(pool, blob, paths, seconds)
            finally:
                pool.stop()
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)
    ratio = results[4]["qps"] / max(results[1]["qps"], 1e-9)
    print(
        f"\naggregate throughput: workers=1 {results[1]['qps']:,.0f} req/s, "
        f"workers=4 {results[4]['qps']:,.0f} req/s ({ratio:.2f}x) — "
        f"{results[4]['swaps']} hot swaps per run, zero failures required"
    )
    for workers, totals in results.items():
        benchmark.extra_info[f"qps_workers_{workers}"] = round(totals["qps"], 1)
        assert totals["errors"] == 0, f"workers={workers}: {totals}"
        assert totals["ok"] == totals["requests"]
        assert totals["swaps"] == 2
    benchmark.extra_info["scaling_4x"] = round(ratio, 3)
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert ratio >= MIN_SCALING_4X, (
            f"4-worker aggregate only {ratio:.2f}x the single-worker "
            f"baseline on a {cores}-core machine"
        )
