"""Benchmark entry point.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

Runs one workload (``batch``, ``serve`` or ``refresh``) on
inputs generated from ``--seed``, checks every answer, and prints as its
last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are its
per-layer metrics, and the span dump is written under ``.bench_out/``.
Exits 1 when an answer was wrong and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SETUP_REPEATS,
    BenchError,
    Spans,
    bootstrap,
    fresh_datasets,
    mapping_digest,
    median_of,
    peak_rss_mb,
    run_facts,
    theta_of,
    write_trace,
)

#: Seconds of measurement given to another workload's traced pass when
#: it only fills in layers this workload does not exercise.
FILL_SECONDS = 2.0


def workloads() -> Dict[str, Callable]:
    from pipeline_wl import run_batch
    from refresh_wl import run_refresh
    from serve_wl import run_serve

    return {
        "batch": run_batch,
        "serve": run_serve,
        "refresh": run_refresh,
    }


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(result: Dict) -> Dict[str, float]:
    ops = result["ops"]
    # A read mix's requests overlap, so its rate is over the window;
    # pipeline runs and publish cycles run back to back.
    seconds = result.get("measured_seconds") or sum(ops)
    return {
        "setup_s": median_of(result["setups"]),
        "op_p50_ms": median_of(ops) * 1e3,
        "ops_per_s": len(ops) / seconds,
        "peak_rss_mb": result.get("peak_rss_mb") or peak_rss_mb(),
    }


def fill_layers(name: str, seed: int, result: Dict, wanted, orgs=None) -> Dict[str, str]:
    """Measure the per-layer metrics *name*'s own path does not reach.

    Each missing group is measured on this run's universe (or, for the
    HTTP and watch layers, by a short traced pass of the workload that
    exercises them).  Returns metric → where it came from.
    """
    from layers import index_probe, store_load_probe
    from pipeline_wl import sharded_check

    layers = result["layers"]
    sources = {key: name for key in layers}
    whois, pdb, _ = fresh_datasets(result["blob"])

    def missing(keys) -> bool:
        return any(key in wanted and key not in layers for key in keys)

    def take(values: Dict[str, float], source: str) -> None:
        for key, value in values.items():
            if key in wanted and key not in layers:
                layers[key] = value
                sources[key] = source

    spans = result["spans"]
    if missing(["index.lookup_us", "blob.compile_s", "index.build_s"]):
        take(index_probe(result["mapping"], whois, pdb, spans, seed), "index-probe")
    if missing(["store.load_s"]):
        take({"store.load_s": store_load_probe(result["mapping"], whois, spans)},
             "index-probe")
    if missing(["partition.plan_s", "shard.max_s"]):
        expected = mapping_digest(result["mapping"])
        take(sharded_check(result["blob"], expected, result["outcome"], spans), "sharded")
    if missing(["service.asn_p50_ms", "service.search_p50_ms", "httpd.overhead_ms"]):
        from serve_wl import run_serve

        fill = run_serve(seed, FILL_SECONDS, True, orgs=orgs, setup_repeats=1)
        result["outcome"].absorb(fill["outcome"])
        take(fill["layers"], "serve")
    if missing(["watch.gate_s", "watch.cycle_busy_s"]):
        from refresh_wl import run_refresh

        fill = run_refresh(seed, FILL_SECONDS, True, orgs=orgs, setup_repeats=1,
                           min_untraced=0)
        result["outcome"].absorb(fill["outcome"])
        take(fill["layers"], "refresh")
    return sources


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        bootstrap()
        runs = workloads()
        if args.workload not in runs:
            raise BenchError(f"unknown workload {args.workload!r}; pick from {sorted(runs)}")
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    trace = bool(args.trace)
    # setup_s is an end-to-end metric: a traced run sets up only once.
    result = runs[args.workload](
        args.seed, args.seconds, trace, setup_repeats=1 if trace else SETUP_REPEATS
    )
    outcome = result["outcome"]
    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        sources = fill_layers(args.workload, args.seed, result, wanted)
        values = result["layers"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        sources = {}
        values = end_to_end(result)
    absent = sorted(set(wanted) - set(values))
    if absent:
        raise BenchError(f"metrics not measured: {absent}")

    mapping = result["mapping"]
    facts = run_facts(
        args.workload,
        args.seed,
        trace=trace,
        asns=mapping.universe_size,
        orgs=len(mapping),
        theta=round(theta_of(mapping), 6),
        llm_requests=result["llm_requests"],
        response_cache_hit_ratio=values.get("service.cache_hit_ratio"),
        samples=len(result["ops"]),
        host_factor=result["host"].factor,
        setups=[round(v, 3) for v in result["setups"]],
        ops_head=[round(v, 4) for v in result["ops"][:12]],
        wall_seconds=round(time.perf_counter() - started, 3),
        errors=outcome.errors[:5],
        violations=outcome.violations[:5],
    )
    print("facts " + json.dumps(facts, sort_keys=True))
    if trace:
        spans: Spans = result["spans"]
        path = write_trace(
            f"{args.workload}-seed{args.seed}",
            {
                "facts": facts,
                "metrics": values,
                "metric_sources": sources,
                "spans": spans.records,
                "stage_records": result["stage_records"],
                "metrics_scrape": {
                    f"{name}{dict(labels)}": value
                    for (name, labels), value in (result.get("metrics_scrape") or {}).items()
                },
            },
        )
        print(f"trace written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
