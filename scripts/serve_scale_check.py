#!/usr/bin/env python3
"""CI gate for the multi-worker serve tier.

Builds a snapshot index, then runs the same pipelined load against a
1-worker pool and a 4-worker pool sharing its blob behind one
``SO_REUSEPORT`` socket.  The gate asserts, in order of importance:

1. **Correctness** — over the wire, the 4-worker pool's answers
   (``/v1/asn``, ``/v1/org``, ``/v1/search``), served from the mapped
   segment, equal the in-process :class:`MappingIndex`'s ``to_json()``
   plus ``generation`` over a seeded sample of the corpus, and every
   request in both load runs succeeded (zero non-2xx).
2. **Hygiene** — worker churn (one ``SIGKILL`` after the 4-worker run)
   is respawned, fresh traffic sees zero failures, and no shared-memory
   segment leaks after ``stop()``.
3. **Scaling** — on machines with ≥ 4 cores, the 4-worker aggregate
   must be ≥ 2.5× the single-worker aggregate.  On smaller runners the
   ratio is reported but not enforced (there is nothing to scale onto).

Run:  PYTHONPATH=src python scripts/serve_scale_check.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import UniverseConfig  # noqa: E402
from repro.core import BorgesPipeline  # noqa: E402
from repro.serve import MappingIndex  # noqa: E402
from repro.serve.loadgen import HttpConnectionPool, run_pipelined  # noqa: E402
from repro.serve.shm.pool import WorkerConfig, WorkerPool  # noqa: E402
from repro.universe import generate_universe  # noqa: E402

MIN_SCALING_4X = 2.5
DRIVE_SECONDS = 3.0
SAMPLE_ASNS = 2000
SAMPLE_QUERIES = 60


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"  ok: {message}")


def check_wire_answers(pool: WorkerPool, index: MappingIndex) -> None:
    """Pool answers must equal the in-process index's, plus generation.

    Eight client connections spread the sample over the workers; each
    answer comes from a worker reading its ``mmap`` of the segment.
    """
    rng = random.Random(41)
    asns = index.asns()
    sample = rng.sample(asns, min(SAMPLE_ASNS, len(asns)))
    generation = 1  # a pool serves the one blob it was started with
    expected = {}
    for asn in sample:
        record = index.lookup_asn(asn)
        org = record.org
        expected[f"/v1/asn/{asn}"] = dict(
            record.to_json(), generation=generation
        )
        expected[f"/v1/org/{org.org_id}"] = dict(
            org.to_json(), generation=generation
        )
    queries = {index.lookup_asn(a).org.name.split()[0] for a in sample[:40]}
    queries |= {q[:3] for q in list(queries)[:20]}  # prefix paths
    for query in sorted(queries):
        expected[f"/v1/search?q={quote(query)}"] = {
            "query": query,
            "results": [r.to_json() for r in index.search(query)],
            "generation": generation,
        }
    client = HttpConnectionPool(pool.host, pool.port, size=8)
    try:
        with ThreadPoolExecutor(max_workers=8) as executor:
            answers = dict(
                zip(expected, executor.map(
                    lambda path: client.request("GET", path), expected
                ))
            )
    finally:
        client.close()
    for path, (status, body) in answers.items():
        if status != 200:
            fail(f"{path}: status {status}")
        if json.loads(body) != expected[path]:
            fail(f"{path}: pool answer diverged from the in-process index")
    print(
        f"  ok: pool answers equal the index over {len(sample)} ASNs, "
        f"their orgs and {len(queries)} search queries "
        f"({len(expected):,} distinct requests)"
    )


def shm_entries() -> set:
    root = Path("/dev/shm")
    return {p.name for p in root.iterdir()} if root.is_dir() else set()


def drive(pool: WorkerPool, paths, seconds: float) -> dict:
    """Pipelined load for *seconds*."""
    totals = {"requests": 0, "ok": 0, "errors": 0}
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        result = run_pipelined(pool.url, paths, repeat=1)
        for key in totals:
            totals[key] += result[key]
    elapsed = time.perf_counter() - started
    totals["qps"] = totals["requests"] / elapsed
    return totals


def churn(pool: WorkerPool, paths) -> None:
    """SIGKILL one worker, wait for its respawn, verify recovery."""
    dead_pid = pool.kill_worker(pool.config.workers - 1)
    pool.wait_ready()
    states = pool.worker_states()
    check(
        states[-1] is not None and states[-1]["pid"] != dead_pid,
        f"killed worker (pid {dead_pid}) was respawned",
    )
    after = run_pipelined(pool.url, paths, repeat=2)
    check(
        after["errors"] == 0 and after["ok"] == after["requests"],
        f"zero failed requests after kill -9 ({after['requests']:,} sent)",
    )


def main() -> None:
    print("== serve-scale: building universe + snapshot blob ==")
    universe = generate_universe(UniverseConfig())
    result = BorgesPipeline(universe.whois, universe.pdb, universe.web).run()
    index = MappingIndex.build(
        result.mapping, whois=universe.whois, pdb=universe.pdb
    )
    blob = bytes(index.blob)
    print(
        f"  blob: {len(blob):,} bytes for {index.asn_count:,} ASNs / "
        f"{len(index):,} orgs"
    )

    paths = [f"/v1/asn/{asn}" for asn in index.asns()[:512]]
    before = shm_entries()
    results = {}
    for workers in (1, 4):
        print(f"== load: {workers} worker(s) ==")
        pool = WorkerPool(
            WorkerConfig(workers=workers, start_timeout=60.0),
            state_dir=None,
        )
        pool.start(blob)
        try:
            run_pipelined(pool.url, paths[:64], repeat=1)  # warm-up
            if workers == 4:
                print("== answers over the wire: pool vs MappingIndex ==")
                check_wire_answers(pool, index)
            totals = drive(pool, paths, DRIVE_SECONDS)
            check(
                totals["errors"] == 0 and totals["ok"] == totals["requests"],
                f"workers={workers}: zero failed requests "
                f"({totals['requests']:,} total)",
            )
            if workers == 4:
                print("== worker churn: kill -9 + respawn ==")
                churn(pool, paths)
        finally:
            pool.stop()
        results[workers] = totals
        print(f"  aggregate: {totals['qps']:,.0f} req/s")

    leaked = shm_entries() - before
    check(not leaked, f"no leaked shm segments (leaked={sorted(leaked)})")

    ratio = results[4]["qps"] / max(results[1]["qps"], 1e-9)
    cores = os.cpu_count() or 1
    print(f"== scaling: {ratio:.2f}x on {cores} core(s) ==")
    if cores >= 4:
        check(
            ratio >= MIN_SCALING_4X,
            f"4-worker aggregate >= {MIN_SCALING_4X}x single worker "
            f"(got {ratio:.2f}x)",
        )
    else:
        print(
            f"  skip: scaling bar needs >= 4 cores, runner has {cores} "
            f"(measured {ratio:.2f}x)"
        )
    print("serve-scale check passed")


if __name__ == "__main__":
    main()
