"""The ``batch`` workload: cold pipeline runs, plus the sharded check.

Every repetition unpickles a fresh copy of the seeded default universe
(untimed) so the program digests input it has never seen, then times
``BorgesPipeline`` construction plus ``run()`` up to the finished
mapping.  After the timed repetitions one untimed
``run_sharded(n_shards=2, shard_workers="process")`` on the same inputs
must reproduce the mapping byte for byte; traced, it also yields the
fan-out layer metrics.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from common import (
    SETUP_REPEATS,
    HostSpeed,
    NoSpans,
    Outcome,
    Spans,
    fresh_datasets,
    generate_inputs,
    mapping_digest,
    median_of,
    scratch_dir,
)

#: Stage names of the default DAG, each reported as ``stage.<name>_s``.
STAGES = (
    "oid_w", "oid_p", "ner_extract", "notes_aka",
    "scrape", "rr", "favicons", "merge",
)


def setup_inputs(
    seed: int, orgs: Optional[int], spans, host: HostSpeed,
    repeats: int = SETUP_REPEATS,
) -> Dict[str, object]:
    """Generate the universe *repeats* times; keep the pickled datasets.

    Returns them plus every set-up duration, so the caller reports their
    median rather than one noisy sample.  Only the pickle is kept: live
    objects the benchmark holds would slow every collection the program
    triggers while it is being timed.
    """
    setups: List[float] = []
    for _ in range(repeats):
        gc.collect()
        host.sample()
        started = time.perf_counter()
        with spans.span("universe.generate"):
            _, blob, _ = generate_inputs(seed, orgs)
        setups.append(time.perf_counter() - started)
    return {"blob": blob, "setups": setups}


# -- layer probes (traced run only) -------------------------------------------


@contextmanager
def codec_timer(spans: Spans):
    """Time the artifact codec from outside: ``make_artifact`` plus every
    stage's ``encode``/``decode``, wrapped where the executor and the
    pipeline look them up."""
    import repro.core.executor as executor_mod
    import repro.core.pipeline as pipeline_mod

    original_make = executor_mod.make_artifact
    original_graph = pipeline_mod.build_stage_graph

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            with spans.span("artifacts.codec", op=name):
                return fn(*args, **kwargs)

        return wrapper

    def graph(*args, **kwargs):
        specs = original_graph(*args, **kwargs)
        for key, spec in specs.items():
            specs[key] = dataclasses.replace(
                spec,
                encode=timed(spec.encode, "encode"),
                decode=timed(spec.decode, "decode"),
            )
        return specs

    executor_mod.make_artifact = timed(original_make, "make_artifact")
    pipeline_mod.build_stage_graph = graph
    try:
        yield
    finally:
        executor_mod.make_artifact = original_make
        pipeline_mod.build_stage_graph = original_graph


def digest_layers(blob: bytes, spans: Spans) -> Dict[str, float]:
    """``dataset_digest`` of each dataset, on objects never digested."""
    from repro.digest import dataset_digest

    whois, pdb, web = fresh_datasets(blob)
    layers = {}
    for name, obj in (("whois", whois), ("pdb", pdb), ("web", web)):
        with spans.span("digest." + name) as record:
            dataset_digest(obj)
        layers[f"digest.{name}_s"] = record["end"] - record["start"]
    return layers


def pipeline_metrics(results, spans: Spans) -> Dict[str, float]:
    """Per-layer pipeline metrics from traced repetitions.

    *results* are the traced runs' ``BorgesResult``s; stage times come
    from their ``stage_records``, LLM and scraper counts from their
    diagnostics, the rest from the benchmark's own spans.
    """
    stage_times: Dict[str, List[float]] = {name: [] for name in STAGES}
    overlaps, llm_requests, hit_ratios, fetches = [], [], [], []
    # The last len(results) pipeline spans belong to *results*, in order.
    run_times = spans.durations("pipeline.run")[-len(results):]
    init_times = spans.durations("pipeline.init")[-len(results):]
    reps = [r for r in spans.records if r["name"] == "pipeline.rep"][-len(results):]
    codec = []
    for result, run_s in zip(results, run_times):
        total = 0.0
        for record in result.stage_records:
            stage_times[str(record["stage"])].append(
                float(record["duration_seconds"])
            )
            total += float(record["duration_seconds"])
        overlaps.append(total / run_s)
        diag = result.diagnostics
        llm_requests.append(float(diag["llm_requests"]))
        cache = diag["llm_cache"]
        lookups = cache["hits"] + cache["misses"]
        hit_ratios.append(cache["hits"] / lookups if lookups else 0.0)
        scraper = diag["scraper"]
        fetches.append(float(scraper["resolved"] + scraper["reattempts"]))
    for record in reps:
        codec.append(sum(
            float(r["end"]) - float(r["start"])
            for r in spans.records
            if r["name"] == "artifacts.codec"
            and record["start"] <= r["start"] <= record["end"]
        ))
    metrics = {
        "pipeline.init_s": median_of(init_times),
        "pipeline.run_s": median_of(run_times),
        "executor.overlap": median_of(overlaps),
        "artifacts.codec_s": median_of(codec),
        "llm.requests": median_of(llm_requests),
        "llm.cache_hit_ratio": median_of(hit_ratios),
        "scraper.fetches": median_of(fetches),
    }
    for name, values in stage_times.items():
        metrics[f"stage.{name}_s"] = median_of(values)
    return metrics


def traced_pipeline_run(datasets, spans: Spans):
    """One traced ``BorgesPipeline`` run on a fresh (whois, pdb, web)."""
    from repro.core.pipeline import BorgesPipeline
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

    whois, pdb, web = datasets
    with spans.span("pipeline.rep"), codec_timer(spans):
        with spans.span("pipeline.init"):
            pipeline = BorgesPipeline(
                whois, pdb, web,
                tracer=Tracer(), registry=MetricsRegistry(),
            )
        with spans.span("pipeline.run"):
            result = pipeline.run()
    return result


def shard_metrics(result, tracer, checkpoint_s: float) -> Dict[str, float]:
    """Per-layer metrics of one sharded run, from the program's own
    spans (``tracer=``) and ``ShardedBorgesResult.diagnostics``."""
    summary = result.diagnostics["partition"]
    mean = summary["asns"] / summary["shards"]
    durations = [
        float(s["duration_seconds"]) for s in result.diagnostics["shards"]
    ]

    def program_span(name: str) -> float:
        return sum(s.duration for s in tracer.find(name))

    return {
        "partition.plan_s": program_span("pipeline.partition"),
        "partition.skew": summary["largest_shard"] / mean,
        "shard.datasets_s": program_span("pipeline.shard_datasets"),
        "shard.max_s": max(durations),
        "shard.min_s": min(durations),
        "shard.retries": float(
            result.diagnostics["fault_tolerance"]["retry_total"]
        ),
        "merge.reduce_s": program_span("pipeline.reduce"),
        "checkpoint.record_s": checkpoint_s,
    }


@contextmanager
def checkpoint_timer(spans: Spans):
    """Time ``RunCheckpoint.record_shard`` from outside the program."""
    from repro.core.checkpoint import RunCheckpoint

    original = RunCheckpoint.record_shard

    def timed(self, *args, **kwargs):
        with spans.span("checkpoint.record"):
            return original(self, *args, **kwargs)

    RunCheckpoint.record_shard = timed
    try:
        yield
    finally:
        RunCheckpoint.record_shard = original


def sharded_check(blob: bytes, expected: str, outcome: Outcome, spans) -> Dict[str, float]:
    """One ``run_sharded(n_shards=2, shard_workers="process")`` on the
    same inputs: its mapping must be byte-identical to the unsharded one
    (digest *expected*) with no shard retried.  Traced (*spans* enabled),
    it returns the fan-out layer metrics plus ``sharded.run_s``."""
    from repro.core.pipeline import run_sharded
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

    trace = spans.enabled
    tracer = Tracer() if trace else None
    whois, pdb, web = fresh_datasets(blob)
    with scratch_dir("sharded-") as tmp:
        with checkpoint_timer(spans) if trace else nullcontext():
            with spans.span("sharded.run") as record:
                result = run_sharded(
                    whois, pdb, web,
                    n_shards=2,
                    shard_workers="process",
                    checkpoint_path=tmp / "checkpoint.jsonl",
                    tracer=tracer,
                    registry=MetricsRegistry() if trace else None,
                )
    _reset_global_tracer()
    digest = mapping_digest(result.mapping)
    retries = result.diagnostics["fault_tolerance"]["retry_total"]
    outcome.op(not result.degraded, f"sharded run degraded: {result.feature_errors}")
    if digest != expected:
        outcome.wrong(f"sharded mapping {digest[:12]} != unsharded {expected[:12]}")
    if retries:
        outcome.wrong(f"sharded run retried {retries} shard attempts")
    if not trace:
        return {}
    layers = shard_metrics(result, tracer, spans.total("checkpoint.record"))
    layers["sharded.run_s"] = record["end"] - record["start"]
    return layers


# -- the workloads ---------------------------------------------------------------


def _reset_global_tracer() -> None:
    """Untraced runs use the program's default (process-global) tracer,
    which keeps every root span; drop them between repetitions."""
    from repro.obs.tracer import get_tracer

    get_tracer().reset()


def run_batch(
    seed: int, seconds: float, trace: bool, orgs=None,
    setup_repeats: int = SETUP_REPEATS,
) -> Dict:
    """Cold ``BorgesPipeline`` construction + ``run()`` until *seconds*
    elapse; traced runs alternate untraced and traced repetitions."""
    from repro.core.pipeline import BorgesPipeline

    spans = Spans() if trace else NoSpans()
    host = HostSpeed()
    inputs = setup_inputs(seed, orgs, spans, host, setup_repeats)
    blob = inputs["blob"]
    outcome = Outcome()
    plain: List[float] = []
    traced: List[float] = []
    traced_results = []
    digests: List[str] = []
    # One untimed repetition first: lazy imports and first-use caches.
    BorgesPipeline(*fresh_datasets(blob)).run()
    _reset_global_tracer()
    deadline = time.perf_counter() + seconds
    rep = 0
    while time.perf_counter() < deadline or len(plain) < 2:
        datasets = fresh_datasets(blob)
        gc.collect()
        host.sample()
        if trace and rep % 2 == 0:
            started = time.perf_counter()
            result = traced_pipeline_run(datasets, spans)
            traced.append(time.perf_counter() - started)
            traced_results.append(result)
        else:
            started = time.perf_counter()
            result = BorgesPipeline(*datasets).run()
            plain.append(time.perf_counter() - started)
            _reset_global_tracer()
        digests.append(mapping_digest(result.mapping))
        outcome.op(
            not result.degraded, f"rep {rep} degraded: {result.feature_errors}"
        )
        mapping = result.mapping
        llm_requests = result.diagnostics["llm_requests"]
        stage_records = result.stage_records
        del result, datasets
        rep += 1
    if len(set(digests)) != 1:
        outcome.wrong(f"mapping digest differs across repetitions: {digests}")
    # Untimed: the same inputs sharded must give the same mapping.
    layers = sharded_check(blob, digests[0], outcome, spans)
    if trace:
        layers.update(pipeline_metrics(traced_results, spans))
        layers["universe.generate_s"] = spans.median("universe.generate")
        layers.update(digest_layers(blob, spans))
        layers["trace.overhead_pct"] = 100.0 * (
            median_of(traced) / median_of(plain) - 1.0
        )
    return {
        "setups": inputs["setups"],
        "ops": plain,
        "host": host,
        "outcome": outcome,
        "mapping": mapping,
        "blob": blob,
        "layers": layers,
        "spans": spans,
        "llm_requests": llm_requests,
        "stage_records": stage_records,
    }
