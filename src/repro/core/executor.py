"""The stage executor: topological, cached, isolated.

:class:`StageExecutor` takes a resolved stage graph (see
:mod:`repro.core.stages`) and drives it to completion:

* **Topological order** — stages run one at a time on the calling
  thread, in the graph's own order (``build_stage_graph`` returns it
  topologically sorted), so scheduling is deterministic run-to-run.
  Every stage is pure-Python CPU work under one GIL, so there is no
  concurrency to win inside one run; a sharded run fans out across
  shards instead (:func:`repro.core.pipeline.run_sharded`).
* **Incrementality** — each stage's fingerprint is computed *before* it
  runs (fingerprints are input-addressed: config slice + dataset digests
  + upstream fingerprints), so a cache hit skips the work entirely and
  :meth:`plan` can predict hits without executing anything.
* **Isolation** — an optional stage's failure marks it ``failed`` and
  skips its dependents; backbone failures abort the run.  The old
  hand-written rr-salvage logic falls out of the DAG shape: rr depends
  only on scrape, so a favicon failure can't touch it.

Every stage execution is wrapped in a ``stage.<name>`` tracer span and
counted in ``pipeline_stage_runs_total{stage,outcome}``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..obs.context import current_trace_context, use_trace_context
from ..obs.log import get_event_log
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.tracer import Tracer, get_tracer
from .artifacts import Artifact, ArtifactStore, compute_fingerprint, make_artifact
from .stages import StageContext, StageSpec


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


class StageExecutor:
    """Runs one stage graph against one context and artifact store."""

    def __init__(
        self,
        graph: "OrderedDict[str, StageSpec]",
        store: ArtifactStore,
        ctx: StageContext,
        salt: Optional[object] = None,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.ctx = ctx
        self.salt = salt
        #: Extra metric labels / span attributes stamped on every stage
        #: this executor runs (a sharded run passes ``{"shard": "3"}``,
        #: so per-shard stage counters stay distinguishable in one
        #: registry).  Labels never enter fingerprints: the same work is
        #: the same artifact no matter which shard computed it.
        self.extra_labels: Dict[str, str] = {
            str(k): str(v) for k, v in (extra_labels or {}).items()
        }

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
        fingerprints: Dict[str, str] = {}
        # One trace context for the whole run, so every stage's spans and
        # events share the run's trace ID.
        with use_trace_context(current_trace_context()):
            for name, spec in self.graph.items():
                record = outcome.records[name]
                lost = sorted(
                    dep
                    for dep in spec.deps
                    if outcome.records[dep].status in ("failed", "skipped")
                )
                if lost and spec.require_all_deps:
                    record.status = "skipped"
                    record.error = "dependency failed: " + ", ".join(lost)
                    self._count_run(name, "skipped")
                    continue
                error = self._run_stage(spec, record, fingerprints, outcome)
                if error is not None and spec.backbone:
                    for later in outcome.records.values():
                        if later.status == "pending":
                            later.status = "skipped"
                            later.error = "not reached (run aborted)"
                    raise error
        return outcome

    def _count_run(self, name: str, status: str) -> None:
        self._metrics.counter(
            "pipeline_stage_runs_total",
            "stage executions by outcome",
            **dict(self.extra_labels, stage=name, outcome=status),
        ).inc()

    def _run_stage(
        self,
        spec: StageSpec,
        record: StageRecord,
        fingerprints: Dict[str, str],
        outcome: ExecutionOutcome,
    ) -> Optional[BaseException]:
        """Run one stage inside its span; returns its error, if any."""
        start = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            with self._tracer.span("stage." + spec.name) as span:
                for key, value in self.extra_labels.items():
                    span.set_attribute(key, value)
                self._run_one(spec, record, fingerprints, outcome)
                span.set_attribute("status", record.status)
                span.set_attribute("source", record.source)
                if record.fingerprint:
                    span.set_attribute("fingerprint", record.fingerprint[:16])
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            record.status = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
            error = exc
        record.duration = time.perf_counter() - start
        self._count_run(spec.name, record.status)
        get_event_log().emit(
            "stage.finish",
            severity="warning" if record.status == "failed" else "info",
            stage=spec.name,
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
                **dict(self.extra_labels, feature=spec.feature or spec.name),
            ).inc()
        return error

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
        value = spec.produce(self.ctx, inputs)
        # Bytes on first read: the store keeps the value and encodes it
        # only when something reads the artifact (a disk mirror, a memory
        # hit, the manifest).  ``make_artifact`` is looked up here at
        # call time, so a wrapper installed on this module sees it.
        self.store.put(
            Artifact(
                spec.name,
                fingerprint,
                materialize=lambda: make_artifact(
                    spec.name, fingerprint, spec.encode(value)
                ),
            )
        )
        record.status = "ok"
        record.source = "computed"
        # No decode on a miss: every ``produce`` returns the canonical
        # value its ``decode`` would rebuild from the artifact, so cold
        # and warm runs still hand downstream stages equal values
        # (pinned by test_stage_dag::test_produce_is_canonical).  The
        # value is shared with the store, so nothing downstream may
        # mutate it (test_stage_dag::TestLazyArtifacts).
        outcome.values[spec.name] = value
