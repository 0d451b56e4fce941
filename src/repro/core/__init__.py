"""Borges core: the paper's primary contribution.

Four sibling-inference features over PeeringDB/WHOIS/web inputs —
organization keys (§4.1), LLM-based notes/aka extraction (§4.2), final-URL
matching and favicon classification (§4.3) — consolidated into one
AS-to-Organization mapping by transitive merging.
"""

#: Public name → the submodule that defines it.  Each is imported on
#: first access (PEP 562), so importing this package runs none of
#: the pipeline, LLM or web code until a caller asks for it.
_EXPORTS = {
    "Artifact": "artifacts",
    "ArtifactStore": "artifacts",
    "compute_fingerprint": "artifacts",
    "Evidence": "evidence",
    "MappingExplainer": "evidence",
    "collect_evidence": "evidence",
    "ExecutionOutcome": "executor",
    "StageExecutor": "executor",
    "StageRecord": "executor",
    "OrgMapping": "mapping",
    "UnionFind": "merge",
    "merge_clusters": "merge",
    "reduce_shard_clusters": "merge",
    "oid_p_clusters": "org_keys",
    "oid_w_clusters": "org_keys",
    "PartitionPlan": "partition",
    "Shard": "partition",
    "partition_universe": "partition",
    "validate_partition": "partition",
    "NERModule": "ner",
    "NERRecordResult": "ner",
    "ALL_STAGES": "stages",
    "StageContext": "stages",
    "StageSpec": "stages",
    "build_stage_graph": "stages",
    "WebInferenceModule": "web_inference",
    "WebInferenceResult": "web_inference",
    "BorgesPipeline": "pipeline",
    "BorgesResult": "pipeline",
    "FeatureClusters": "pipeline",
    "ShardedBorgesResult": "pipeline",
    "run_sharded": "pipeline",
}

__all__ = [*_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    # ``__import__`` (``from .module import name``) takes the
    # interpreter's own import path, which ``-X importtime`` reports;
    # ``importlib.import_module`` would hide the import from it.
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
