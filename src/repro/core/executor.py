"""The stage executor: topological, cached, concurrent, isolated.

:class:`StageExecutor` takes a resolved stage graph (see
:mod:`repro.core.stages`) and drives it to completion:

* **Topological order** — Kahn's algorithm with a sorted ready set, so
  scheduling is deterministic run-to-run.
* **Incrementality** — each stage's fingerprint is computed *before* it
  runs (fingerprints are input-addressed: config slice + dataset digests
  + upstream fingerprints), so a cache hit skips the work entirely and
  :meth:`plan` can predict hits without executing anything.
* **Concurrency** — independent ready stages run on a thread pool;
  stages declaring a shared resource (the LLM client, the web driver)
  are serialised by per-resource locks.
* **Isolation** — an optional stage's failure marks it ``failed`` and
  skips its dependents; backbone failures abort the run.  The old
  hand-written rr-salvage logic falls out of the DAG shape: rr depends
  only on scrape, so a favicon failure can't touch it.

Every stage execution is wrapped in a ``stage.<name>`` tracer span and
counted in ``pipeline_stage_runs_total{stage,outcome}``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..logutil import get_logger
from ..obs.context import (
    current_trace_context,
    new_trace_context,
    use_trace_context,
)
from ..obs.log import get_event_log
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.tracer import Span, Tracer, get_tracer
from .artifacts import ArtifactStore, compute_fingerprint, make_artifact
from .stages import StageContext, StageSpec

_LOG = get_logger("core.executor")


@dataclass
class StageRecord:
    """What happened to one stage in one run."""

    stage: str
    status: str = "pending"  # "ok" | "cached" | "failed" | "skipped"
    #: Where the value came from: "computed" | "memory" | "disk" | "".
    source: str = ""
    fingerprint: str = ""
    duration: float = 0.0
    error: str = ""
    feature: Optional[str] = None
    backbone: bool = False

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "stage": self.stage,
            "status": self.status,
            "source": self.source,
            "fingerprint": self.fingerprint,
            "duration_seconds": round(self.duration, 6),
        }
        if self.feature:
            out["feature"] = self.feature
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class ExecutionOutcome:
    """Decoded stage values plus the per-stage execution records."""

    values: Dict[str, object] = field(default_factory=dict)
    records: "OrderedDict[str, StageRecord]" = field(default_factory=OrderedDict)

    @property
    def failures(self) -> Dict[str, str]:
        return {
            name: record.error
            for name, record in self.records.items()
            if record.status == "failed"
        }

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.records.values() if r.status == "cached")


class StageExecutor:
    """Runs one stage graph against one context and artifact store."""

    def __init__(
        self,
        graph: "OrderedDict[str, StageSpec]",
        store: ArtifactStore,
        ctx: StageContext,
        max_workers: int = 4,
        salt: Optional[object] = None,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.ctx = ctx
        self.max_workers = max(1, int(max_workers))
        self.salt = salt
        #: Extra metric labels / span attributes stamped on every stage
        #: this executor runs (a sharded run passes ``{"shard": "3"}``,
        #: so per-shard stage counters stay distinguishable in one
        #: registry).  Labels never enter fingerprints: the same work is
        #: the same artifact no matter which shard computed it.
        self.extra_labels: Dict[str, str] = {
            str(k): str(v) for k, v in (extra_labels or {}).items()
        }
        self._resource_locks: Dict[str, threading.Lock] = {}
        for spec in graph.values():
            for resource in spec.resources:
                self._resource_locks.setdefault(resource, threading.Lock())

    @property
    def _tracer(self) -> Tracer:
        return self.ctx.tracer if self.ctx.tracer is not None else get_tracer()

    @property
    def _metrics(self) -> MetricsRegistry:
        return (
            self.ctx.registry
            if self.ctx.registry is not None
            else get_registry()
        )

    # -- fingerprints ------------------------------------------------------

    def _fingerprint_for(
        self, spec: StageSpec, upstream: Dict[str, str]
    ) -> str:
        datasets = {
            name: self.ctx.dataset_digests.get(name, "missing:" + name)
            for name in spec.datasets
        }
        return compute_fingerprint(
            spec.name,
            spec.config_slice(self.ctx.config),
            datasets,
            upstream,
            salt=self.salt,
        )

    def _static_fingerprints(self) -> Dict[str, str]:
        """Every stage's fingerprint, assuming all dependencies succeed.

        Fingerprints are input-addressed, so this needs no execution —
        it is what ``plan`` (and the CLI's ``--explain-plan``) reports.
        """
        fingerprints: Dict[str, str] = {}
        for name, spec in self.graph.items():
            upstream = {dep: fingerprints[dep] for dep in spec.deps}
            fingerprints[name] = self._fingerprint_for(spec, upstream)
        return fingerprints

    # -- planning ----------------------------------------------------------

    def plan(self) -> List[Dict[str, object]]:
        """The would-be execution, stage by stage, without running it."""
        fingerprints = self._static_fingerprints()
        rows: List[Dict[str, object]] = []
        for name, spec in self.graph.items():
            fingerprint = fingerprints[name]
            rows.append(
                {
                    "stage": name,
                    "deps": list(spec.deps),
                    "feature": spec.feature,
                    "backbone": spec.backbone,
                    "fingerprint": fingerprint,
                    "cached": self.store.peek(name, fingerprint),
                }
            )
        return rows

    # -- execution ---------------------------------------------------------

    def execute(self) -> ExecutionOutcome:
        """Run the graph; returns decoded values and per-stage records."""
        outcome = ExecutionOutcome()
        for name, spec in self.graph.items():
            outcome.records[name] = StageRecord(
                stage=name, feature=spec.feature, backbone=spec.backbone
            )

        indegree = {name: len(spec.deps) for name, spec in self.graph.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self.graph}
        for name, spec in self.graph.items():
            for dep in spec.deps:
                dependents[dep].append(name)

        ready = sorted(n for n, d in indegree.items() if d == 0)
        fingerprints: Dict[str, str] = {}
        done: set = set()
        backbone_error: Optional[BaseException] = None
        parent_span: Optional[Span] = self._tracer.current
        # Capture the run's trace context here, on the scheduling thread:
        # contextvars do not cross into pool workers, so run_stage
        # re-installs it explicitly and every stage's spans and events
        # share the run's trace ID.
        run_context = current_trace_context() or new_trace_context()

        def resolve_skips(name: str) -> Optional[str]:
            """Why *name* cannot run, or None if it can."""
            spec = self.graph[name]
            lost = [
                dep
                for dep in spec.deps
                if outcome.records[dep].status in ("failed", "skipped")
            ]
            if lost and spec.require_all_deps:
                return "dependency failed: " + ", ".join(sorted(lost))
            return None

        def finish(name: str) -> None:
            """Mark *name* finished and promote newly-ready dependents."""
            done.add(name)
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
            ready.sort()

        def run_stage(name: str) -> Tuple[str, Optional[BaseException]]:
            spec = self.graph[name]
            record = outcome.records[name]
            start = time.perf_counter()
            try:
                with use_trace_context(run_context):
                    with self._tracer.attach(parent_span):
                        with self._tracer.span("stage." + name) as span:
                            for key, value in self.extra_labels.items():
                                span.set_attribute(key, value)
                            self._run_one(spec, record, fingerprints, outcome)
                            span.set_attribute("status", record.status)
                            span.set_attribute("source", record.source)
                            if record.fingerprint:
                                span.set_attribute(
                                    "fingerprint", record.fingerprint[:16]
                                )
                error: Optional[BaseException] = None
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                record.status = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
                error = exc
            record.duration = time.perf_counter() - start
            self._metrics.counter(
                "pipeline_stage_runs_total",
                "stage executions by outcome",
                **dict(self.extra_labels, stage=name, outcome=record.status),
            ).inc()
            with use_trace_context(run_context):
                get_event_log().emit(
                    "stage.finish",
                    severity="warning" if record.status == "failed" else "info",
                    stage=name,
                    status=record.status,
                    source=record.source,
                    duration_ms=round(record.duration * 1e3, 3),
                    fingerprint=record.fingerprint[:16],
                    error=record.error,
                )
            if record.status == "failed" and not spec.backbone:
                self._metrics.counter(
                    "pipeline_feature_failures_total",
                    "features lost to errors (run degraded)",
                    **dict(self.extra_labels, feature=spec.feature or name),
                ).inc()
                _LOG.warning(
                    "stage %s failed, continuing degraded: %s",
                    name,
                    record.error,
                )
            return name, error

        pool: Optional[ThreadPoolExecutor] = None
        if self.max_workers > 1:
            pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="borges-stage",
            )
        try:
            running: Dict[object, str] = {}
            while (ready or running) and backbone_error is None:
                while ready:
                    name = ready.pop(0)
                    skip_reason = resolve_skips(name)
                    if skip_reason is not None:
                        record = outcome.records[name]
                        record.status = "skipped"
                        record.error = skip_reason
                        self._metrics.counter(
                            "pipeline_stage_runs_total",
                            "stage executions by outcome",
                            **dict(
                                self.extra_labels,
                                stage=name,
                                outcome="skipped",
                            ),
                        ).inc()
                        finish(name)
                        continue
                    if pool is None:
                        finished, error = run_stage(name)
                        if error is not None and self.graph[name].backbone:
                            backbone_error = error
                        finish(finished)
                        if backbone_error is not None:
                            break
                    else:
                        running[pool.submit(run_stage, name)] = name
                if pool is not None and running:
                    completed, _pending = wait(
                        set(running), return_when=FIRST_COMPLETED
                    )
                    for future in sorted(
                        completed, key=lambda f: running[f]
                    ):
                        running.pop(future)
                        finished, error = future.result()
                        if error is not None and self.graph[finished].backbone:
                            backbone_error = error
                        finish(finished)
            if pool is not None and running:
                # A backbone stage failed: let in-flight stages drain, but
                # schedule nothing new.
                for future in wait(set(running)).done:
                    name = running.get(future)
                    if name is not None:
                        finished, error = future.result()
                        finish(finished)
                running.clear()
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

        for name, record in outcome.records.items():
            if record.status == "pending":
                record.status = "skipped"
                record.error = record.error or "not reached (run aborted)"

        if backbone_error is not None:
            raise backbone_error
        return outcome

    def _run_one(
        self,
        spec: StageSpec,
        record: StageRecord,
        fingerprints: Dict[str, str],
        outcome: ExecutionOutcome,
    ) -> None:
        """Resolve one runnable stage: cache hit or compute + store."""
        surviving = [
            dep for dep in spec.deps if outcome.records[dep].status in ("ok", "cached")
        ]
        upstream = {dep: fingerprints[dep] for dep in surviving}
        fingerprint = self._fingerprint_for(spec, upstream)
        record.fingerprint = fingerprint
        fingerprints[spec.name] = fingerprint

        source = self.store.peek(spec.name, fingerprint)
        artifact = self.store.get(spec.name, fingerprint)
        if artifact is not None:
            record.status = "cached"
            record.source = source or "memory"
            outcome.values[spec.name] = spec.decode(artifact.payload, self.ctx)
            return

        inputs = {dep: outcome.values[dep] for dep in surviving}
        with ExitStack() as locks:
            for resource in sorted(spec.resources):
                locks.enter_context(self._resource_locks[resource])
            value = spec.produce(self.ctx, inputs)
        payload = spec.encode(value)
        self.store.put(make_artifact(spec.name, fingerprint, payload))
        record.status = "ok"
        record.source = "computed"
        # No decode on a miss: every ``produce`` returns the canonical
        # value its ``decode`` would rebuild from the artifact, so cold
        # and warm runs still hand downstream stages equal values
        # (pinned by test_stage_dag::test_produce_is_canonical).
        outcome.values[spec.name] = value
