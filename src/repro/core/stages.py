"""The declarative stage DAG: Borges as a dataflow of cached stages.

§3–§4 of the paper is naturally a DAG — four sibling-signal features
feed one union-find consolidation, with R&R and favicons sharing a
scrape stage::

    oid_w ───────────────────────────┐
    oid_p ───────────────────────────┤
    ner_extract ──▶ notes_aka ───────┼──▶ merge
    scrape ──┬──▶ rr ────────────────┤
             └──▶ favicons ──────────┘

Each :class:`StageSpec` declares its dependencies, the config slice and
dataset digests that enter its fingerprint, and a JSON codec.
:func:`build_stage_graph` returns the graph in topological order, and
the executor runs it in that order on the calling thread.  Every
``produce`` returns the canonical value: the one its ``decode``
rebuilds from the encoded artifact (clusters in codec order, dicts in
sorted key order).  The executor therefore hands a computed value
downstream as is and decodes only on a cache hit, and cold and warm
runs still hand downstream stages equal values.

The DAG replaces the old hand-written feature flow in ``pipeline.py``:
the rr-salvage special case is gone because rr depends only on the
scrape artifact, so a favicon-stage failure cannot drag it down.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:  # pragma: no cover - 3.7+ always has this
    from collections import OrderedDict
except ImportError:  # pragma: no cover
    OrderedDict = dict  # type: ignore[assignment,misc]

from ..config import (
    ALL_STAGES,
    FEATURE_FAVICONS,
    FEATURE_NOTES_AKA,
    FEATURE_OID_P,
    FEATURE_OID_W,
    FEATURE_RR,
    STAGE_FAVICONS,
    STAGE_MERGE,
    STAGE_NER_EXTRACT,
    STAGE_NOTES_AKA,
    STAGE_OID_P,
    STAGE_OID_W,
    STAGE_RR,
    STAGE_SCRAPE,
    BorgesConfig,
)
from ..errors import ConfigError
from ..obs.registry import MetricsRegistry
from ..obs.tracer import Tracer
from ..types import Cluster
from .mapping import OrgMapping
from .ner import NERRecordResult
from .org_keys import oid_p_clusters, oid_w_clusters
from .web_inference import FaviconDecision, WebInferenceStats


@dataclass
class StageContext:
    """Everything a stage's ``produce`` may touch.

    Service objects (scraper, LLM client, NER module, web-inference
    module) are owned by the pipeline and shared across stages; datasets
    are read-only inputs whose digests anchor the fingerprints.
    """

    whois: object
    pdb: object
    config: BorgesConfig
    client: object = None
    ner: object = None
    web_module: object = None
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    dataset_digests: Dict[str, str] = field(default_factory=dict)

    def span(self, name: str, **attributes: object):
        if self.tracer is not None:
            return self.tracer.span(name, **attributes)
        from ..obs.tracer import get_tracer

        return get_tracer().span(name, **attributes)


@dataclass
class StageSpec:
    """One node of the DAG: identity, wiring, fingerprint inputs, codec."""

    name: str
    produce: Callable[[StageContext, Dict[str, object]], object]
    encode: Callable[[object], object]
    decode: Callable[[object, StageContext], object]
    deps: Tuple[str, ...] = ()
    #: Feature name whose clusters this stage emits (None for infra
    #: stages such as scrape/ner_extract and for merge).
    feature: Optional[str] = None
    #: Backbone stages abort the whole run on failure (oid_w defines the
    #: universe; merge produces the result).  Everything else degrades.
    backbone: bool = False
    #: When False the stage runs with whatever dependencies survived
    #: (merge consolidates the surviving features).
    require_all_deps: bool = True
    #: Keys of ``ctx.dataset_digests`` that enter this stage's fingerprint.
    datasets: Tuple[str, ...] = ()
    config_slice: Callable[[BorgesConfig], object] = lambda config: None


# -- codecs -------------------------------------------------------------------


def encode_clusters(clusters: Sequence[Cluster]) -> List[List[int]]:
    """Canonical JSON form of a cluster list (sorted, deterministic)."""
    return sorted(sorted(int(a) for a in cluster) for cluster in clusters)


def decode_clusters(payload: object) -> List[Cluster]:
    return [frozenset(int(a) for a in members) for members in payload]


def canonical_clusters(clusters: Iterable[Cluster]) -> List[Cluster]:
    """*clusters* in codec order: what ``decode_clusters`` rebuilds from
    ``encode_clusters`` of the same list, without the round trip."""
    return sorted(clusters, key=sorted)


def stage_clusters(value: object) -> List[Cluster]:
    """The cluster list of any feature stage's decoded value."""
    if isinstance(value, dict):
        return list(value.get("clusters", []))
    return list(value)


# -- stage implementations ----------------------------------------------------


def _produce_oid_w(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("feature.oid_w"):
        return canonical_clusters(oid_w_clusters(ctx.whois))


def _produce_oid_p(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("feature.oid_p"):
        return canonical_clusters(oid_p_clusters(ctx.pdb))


def _produce_ner_extract(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("ner.extract") as span:
        results = ctx.ner.run(ctx.pdb)
        span.set_attribute("records_queried", ctx.ner.stats.records_queried)
        return {
            "records": results,
            "stats": {
                k: int(v) for k, v in sorted(vars(ctx.ner.stats).items())
            },
        }


def _encode_ner_extract(value: Dict[str, object]) -> object:
    return {
        "records": [
            {
                "asn": int(r.asn),
                "raw_extracted": [int(a) for a in r.raw_extracted],
                "siblings": [int(a) for a in r.siblings],
                "filtered_out": [int(a) for a in r.filtered_out],
                "reasoning": r.reasoning,
                "parse_failed": bool(r.parse_failed),
            }
            for r in value["records"]
        ],
        "stats": {k: int(v) for k, v in sorted(value["stats"].items())},
    }


def _decode_ner_extract(payload: object, ctx: StageContext) -> object:
    # Restore the module's counters so warm-run diagnostics (and the
    # Table-4 accounting, which reads ``pipeline._ner.stats``) match the
    # cold run that produced the artifact.
    if ctx.ner is not None:
        for name, value in payload["stats"].items():
            if hasattr(ctx.ner.stats, name):
                setattr(ctx.ner.stats, name, int(value))
    return {
        "records": [
            NERRecordResult(
                asn=int(record["asn"]),
                raw_extracted=tuple(int(a) for a in record["raw_extracted"]),
                siblings=tuple(int(a) for a in record["siblings"]),
                filtered_out=tuple(int(a) for a in record["filtered_out"]),
                reasoning=str(record.get("reasoning", "")),
                parse_failed=bool(record.get("parse_failed", False)),
            )
            for record in payload["records"]
        ],
        "stats": dict(payload["stats"]),
    }


def _produce_notes_aka(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("feature.notes_aka") as span:
        clusters = canonical_clusters(
            ctx.ner.clusters(inputs[STAGE_NER_EXTRACT]["records"])
        )
        span.set_attribute("clusters", len(clusters))
        return clusters


def _produce_scrape(ctx: StageContext, inputs: Dict[str, object]) -> object:
    final_of_asn, stats = ctx.web_module.scrape_urls(ctx.pdb)
    return {
        "final_url_of_asn": dict(sorted(final_of_asn.items())),
        "stats": dict(sorted(stats.items())),
    }


def _encode_scrape(value: Dict[str, object]) -> object:
    return {
        "final_url_of_asn": sorted(
            [int(asn), str(url)]
            for asn, url in value["final_url_of_asn"].items()
        ),
        "stats": {k: int(v) for k, v in sorted(value["stats"].items())},
    }


def _decode_scrape(payload: object, ctx: StageContext) -> object:
    return {
        "final_url_of_asn": {
            int(asn): str(url) for asn, url in payload["final_url_of_asn"]
        },
        "stats": dict(payload["stats"]),
    }


def _produce_rr(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("feature.rr") as span:
        final_of_asn = inputs[STAGE_SCRAPE]["final_url_of_asn"]
        by_final, blocked = ctx.web_module.rr_grouping(final_of_asn)
        clusters = canonical_clusters(
            frozenset(asns) for asns in by_final.values()
        )
        span.set_attribute("clusters", len(clusters))
        span.set_attribute("blocked_final_urls", blocked)
        return {"clusters": clusters, "blocked_final_urls": blocked}


def _encode_rr(value: Dict[str, object]) -> object:
    return {
        "clusters": encode_clusters(value["clusters"]),
        "blocked_final_urls": int(value["blocked_final_urls"]),
    }


def _decode_rr(payload: object, ctx: StageContext) -> object:
    return {
        "clusters": decode_clusters(payload["clusters"]),
        "blocked_final_urls": int(payload["blocked_final_urls"]),
    }


def _produce_favicons(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("feature.favicons") as span:
        final_of_asn = inputs[STAGE_SCRAPE]["final_url_of_asn"]
        # The grouping is cheap, pure dictionary work; recomputing it here
        # keeps favicons independent of the rr stage, so an rr failure
        # cannot cascade (and vice versa).
        by_final, _blocked = ctx.web_module.rr_grouping(final_of_asn)
        clusters, decisions, stats = ctx.web_module.favicon_stage(by_final)
        clusters = canonical_clusters(clusters)
        span.set_attribute("clusters", len(clusters))
        span.set_attribute("shared_favicon_groups", stats.shared_favicon_groups)
        return {"clusters": clusters, "decisions": decisions, "stats": stats}


def _encode_favicons(value: Dict[str, object]) -> object:
    stats: WebInferenceStats = value["stats"]
    return {
        "clusters": encode_clusters(value["clusters"]),
        "decisions": [
            {
                "favicon": d.favicon,
                "urls": list(d.urls),
                "step": d.step,
                "grouped": bool(d.grouped),
                "llm_reply": d.llm_reply,
            }
            for d in value["decisions"]
        ],
        "stats": {
            name: int(getattr(stats, name))
            for name in (
                "favicons_fetched",
                "unique_favicons",
                "shared_favicon_groups",
                "same_subdomain_groups",
                "llm_groups_accepted",
                "llm_groups_rejected",
            )
        },
    }


def _decode_favicons(payload: object, ctx: StageContext) -> object:
    stats = WebInferenceStats()
    for name, value in payload["stats"].items():
        setattr(stats, name, int(value))
    decisions = [
        FaviconDecision(
            favicon=str(d["favicon"]),
            urls=tuple(str(u) for u in d["urls"]),
            step=str(d["step"]),
            grouped=bool(d["grouped"]),
            llm_reply=str(d.get("llm_reply", "")),
        )
        for d in payload["decisions"]
    ]
    return {
        "clusters": decode_clusters(payload["clusters"]),
        "decisions": decisions,
        "stats": stats,
    }


def _produce_merge(ctx: StageContext, inputs: Dict[str, object]) -> object:
    with ctx.span("pipeline.merge") as span:
        all_clusters: List[Cluster] = []
        for name in ALL_STAGES:
            value = inputs.get(name)
            if value is None:
                continue
            all_clusters.extend(stage_clusters(value))
        org_names = {
            asn: ctx.whois.org_name_of(asn) for asn in ctx.whois.asns()
        }
        label = "borges[" + ",".join(sorted(ctx.config.features)) + "]"
        mapping = OrgMapping(
            universe=ctx.whois.asns(),
            clusters=all_clusters,
            method=label,
            org_names=org_names,
        )
        span.set_attribute("orgs", len(mapping))
        return mapping


def _encode_merge(mapping: OrgMapping) -> object:
    return mapping.to_json()


def _decode_merge(payload: object, ctx: StageContext) -> object:
    return OrgMapping.from_json(payload)


# -- config slices ------------------------------------------------------------


def _llm_slice(config: BorgesConfig) -> object:
    return dataclasses.asdict(config.llm)


def _ner_slice(config: BorgesConfig) -> object:
    return {
        "llm": _llm_slice(config),
        "ner_input_filter": config.ner_input_filter,
        "ner_output_filter": config.ner_output_filter,
    }


def _scrape_slice(config: BorgesConfig) -> object:
    return dataclasses.asdict(config.scraper)


def _rr_slice(config: BorgesConfig) -> object:
    return {"apply_blocklists": config.apply_blocklists}


def _favicons_slice(config: BorgesConfig) -> object:
    return {
        "apply_blocklists": config.apply_blocklists,
        "favicon_llm_step": config.favicon_llm_step,
        "llm": _llm_slice(config),
    }


def _merge_slice(config: BorgesConfig) -> object:
    return {"features": sorted(config.features)}


# -- graph construction -------------------------------------------------------


def _all_specs() -> "OrderedDict[str, StageSpec]":
    specs = OrderedDict()
    specs[STAGE_OID_W] = StageSpec(
        name=STAGE_OID_W,
        produce=_produce_oid_w,
        encode=encode_clusters,
        decode=lambda payload, ctx: decode_clusters(payload),
        feature=FEATURE_OID_W,
        backbone=True,
        datasets=("whois",),
    )
    specs[STAGE_OID_P] = StageSpec(
        name=STAGE_OID_P,
        produce=_produce_oid_p,
        encode=encode_clusters,
        decode=lambda payload, ctx: decode_clusters(payload),
        feature=FEATURE_OID_P,
        datasets=("pdb",),
    )
    specs[STAGE_NER_EXTRACT] = StageSpec(
        name=STAGE_NER_EXTRACT,
        produce=_produce_ner_extract,
        encode=_encode_ner_extract,
        decode=_decode_ner_extract,
        datasets=("pdb",),
        config_slice=_ner_slice,
    )
    specs[STAGE_NOTES_AKA] = StageSpec(
        name=STAGE_NOTES_AKA,
        produce=_produce_notes_aka,
        encode=encode_clusters,
        decode=lambda payload, ctx: decode_clusters(payload),
        deps=(STAGE_NER_EXTRACT,),
        feature=FEATURE_NOTES_AKA,
        config_slice=_ner_slice,
    )
    specs[STAGE_SCRAPE] = StageSpec(
        name=STAGE_SCRAPE,
        produce=_produce_scrape,
        encode=_encode_scrape,
        decode=_decode_scrape,
        datasets=("pdb", "web"),
        config_slice=_scrape_slice,
    )
    specs[STAGE_RR] = StageSpec(
        name=STAGE_RR,
        produce=_produce_rr,
        encode=_encode_rr,
        decode=_decode_rr,
        deps=(STAGE_SCRAPE,),
        feature=FEATURE_RR,
        config_slice=_rr_slice,
    )
    specs[STAGE_FAVICONS] = StageSpec(
        name=STAGE_FAVICONS,
        produce=_produce_favicons,
        encode=_encode_favicons,
        decode=_decode_favicons,
        deps=(STAGE_SCRAPE,),
        feature=FEATURE_FAVICONS,
        datasets=("web",),
        config_slice=_favicons_slice,
    )
    specs[STAGE_MERGE] = StageSpec(
        name=STAGE_MERGE,
        produce=_produce_merge,
        encode=_encode_merge,
        decode=_decode_merge,
        deps=(),  # filled in by build_stage_graph from the enabled features
        backbone=True,
        require_all_deps=False,
        datasets=("whois",),
        config_slice=_merge_slice,
    )
    return specs


def _enabled_stage_names(config: BorgesConfig) -> List[str]:
    names = [STAGE_OID_W]
    if config.has(FEATURE_OID_P):
        names.append(STAGE_OID_P)
    if config.has(FEATURE_NOTES_AKA):
        names.extend([STAGE_NER_EXTRACT, STAGE_NOTES_AKA])
    if config.has(FEATURE_RR) or config.has(FEATURE_FAVICONS):
        names.append(STAGE_SCRAPE)
    if config.has(FEATURE_RR):
        names.append(STAGE_RR)
    if config.has(FEATURE_FAVICONS):
        names.append(STAGE_FAVICONS)
    names.append(STAGE_MERGE)
    return names


def build_stage_graph(
    config: BorgesConfig,
    targets: Optional[Sequence[str]] = None,
) -> "OrderedDict[str, StageSpec]":
    """The resolved DAG for one configuration.

    *targets* optionally restricts execution to a stage subset (the CLI's
    ``--stages``): the graph keeps the targets, their transitive
    dependencies, and the backbone (``oid_w`` and ``merge``), so a
    restricted run still yields a mapping over the surviving features.
    """
    specs = _all_specs()
    enabled = [n for n in _enabled_stage_names(config)]
    if targets is not None:
        unknown = sorted(set(targets) - set(ALL_STAGES))
        if unknown:
            raise ConfigError(
                f"unknown stages: {unknown}; known: {sorted(ALL_STAGES)}"
            )
        keep = {STAGE_OID_W, STAGE_MERGE}
        frontier = [t for t in targets if t in enabled]
        while frontier:
            name = frontier.pop()
            if name in keep:
                continue
            keep.add(name)
            frontier.extend(specs[name].deps)
        enabled = [n for n in enabled if n in keep]

    graph: "OrderedDict[str, StageSpec]" = OrderedDict()
    for name in enabled:
        spec = specs[name]
        if name == STAGE_MERGE:
            feature_stages = tuple(
                n for n in enabled if specs[n].feature is not None
            )
            spec = dataclasses.replace(spec, deps=feature_stages)
        else:
            spec = dataclasses.replace(
                spec, deps=tuple(d for d in spec.deps if d in enabled)
            )
        graph[name] = spec
    return graph
