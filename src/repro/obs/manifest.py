"""Run manifests: one JSON document describing everything a run did.

The manifest is the unit of comparability across runs — the discipline
AS2Org-style longitudinal studies apply to snapshots, applied to our own
pipeline: a config fingerprint says *what* ran, the span tree says *how
long each stage took*, the metric dump and LLM section say *what it
cost*, and the feature/org counts say *what it produced*.  Benchmarks
and the CLI (``--telemetry-out``) write one per run so BENCH trajectories
carry stage-level timing.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..digest import canonical_json
from .registry import MetricsRegistry, get_registry
from .tracer import Tracer, get_tracer

MANIFEST_SCHEMA_VERSION = 1


def _jsonable(value: object) -> object:
    """*value* as plain JSON data, in the canonical form of :mod:`repro.digest`."""
    return json.loads(canonical_json(value))


def config_fingerprint(config: object) -> str:
    """Stable sha256 over a config dataclass's canonical JSON form."""
    canonical = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _llm_section(client) -> Dict[str, object]:
    usage = client.total_usage
    section: Dict[str, object] = {
        "backend": client.backend_name,
        "model": client.config.model,
        "requests": client.request_count,
        "prompt_tokens": usage.prompt_tokens,
        "completion_tokens": usage.completion_tokens,
        "total_tokens": usage.total_tokens,
        "cost_usd": round(usage.cost_usd(), 6),
    }
    cache_stats = client.cache_stats()
    lookups = cache_stats["hits"] + cache_stats["misses"]
    section["cache"] = dict(
        cache_stats,
        hit_rate=(cache_stats["hits"] / lookups) if lookups else 0.0,
    )
    return section


def _feature_section(result, tracer: Optional[Tracer]) -> Dict[str, object]:
    features: Dict[str, object] = {}
    durations: Dict[str, float] = {}
    if tracer is not None:
        for span in tracer.all_spans():
            if span.name.startswith("feature.") and span.finished:
                durations[span.name[len("feature."):]] = span.duration
    for name, feature in sorted(result.features.items()):
        features[name] = {
            "clusters": len(feature.clusters),
            "asns": feature.asn_count,
            "orgs": feature.org_count,
            "duration_seconds": durations.get(name),
        }
    return features


def build_manifest(
    *,
    config: Optional[object] = None,
    result=None,
    client=None,
    service=None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    slo=None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble a manifest from whatever run artifacts are available.

    Every argument is optional so partial runs (a bare experiment, a
    bench that never touched the LLM) still export spans and metrics.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    manifest: Dict[str, object] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_at": time.time(),
    }
    if config is not None:
        manifest["config"] = {
            "fingerprint": config_fingerprint(config),
            "values": _jsonable(config),
        }
    if client is not None:
        manifest["llm"] = _llm_section(client)
    if service is not None:
        # Read-path accounting: when a QueryService ran in-process (the
        # serve/query subcommands, the smoke job), its request counters,
        # cache stats and snapshot generation ride in the same manifest
        # as the write-path stages.
        manifest["serve"] = _jsonable(service.stats())
    if slo is not None:
        # SLO posture at export time: burn rates per window and the
        # firing/clear state of each objective's alert.
        manifest["slo"] = _jsonable(slo.snapshot())
    if result is not None:
        manifest["features"] = _feature_section(result, tracer)
        stage_records = getattr(result, "stage_records", None)
        if stage_records:
            # Per-stage execution accounting: status (ok/cached/failed/
            # skipped), cache source, and artifact fingerprint — this is
            # what makes a cached run distinguishable from a live one in
            # ``borges telemetry``.
            manifest["stages"] = _jsonable(stage_records)
        manifest["org_count"] = len(result.mapping)
        manifest["degraded"] = bool(getattr(result, "degraded", False))
        feature_errors = getattr(result, "feature_errors", None)
        if feature_errors:
            manifest["feature_errors"] = _jsonable(feature_errors)
        if result.diagnostics:
            manifest["diagnostics"] = _jsonable(result.diagnostics)
    manifest["spans"] = tracer.to_dicts()
    manifest["metrics"] = registry.snapshot()
    if extra:
        manifest.update(_jsonable(extra))
    return manifest


def write_manifest(
    path: Union[str, Path], manifest: Dict[str, object]
) -> Path:
    """Write *manifest* as pretty JSON; returns the resolved path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def load_manifest(path: Union[str, Path]) -> Dict[str, object]:
    return json.loads(Path(path).read_text(encoding="utf-8"))
