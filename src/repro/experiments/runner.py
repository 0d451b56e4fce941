"""Experiment registry and the shared, cached context.

Building a universe and running the pipeline is fast (<2 s at default
scale) but happens once per process: :func:`get_context` memoizes by
universe seed/size so the CLI and the bench suite reuse one context
across all ten experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..analysis import (
    factor_combination_table,
    feature_contribution_table,
    footprint_growth,
    footprint_summary,
    hypergiant_sizes,
    population_change_summary,
    theta_curves,
    top_population_growth,
    transit_marginal_growth,
    validate_classifier,
    validate_extraction,
)
from ..baselines import build_as2org_mapping, build_as2orgplus_mapping
from ..config import BorgesConfig, UniverseConfig
from ..core.artifacts import ArtifactStore
from ..core.mapping import OrgMapping
from ..core.pipeline import BorgesPipeline, BorgesResult
from ..errors import ExperimentError
from ..metrics.org_factor import org_factor_from_mapping
from ..obs.registry import get_registry
from ..obs.tracer import get_tracer
from ..universe import Universe, generate_universe
from ..web.favicon import FaviconAPI
from .report import Report


@dataclass
class ExperimentContext:
    """One universe plus the three mappings every experiment consumes."""

    universe: Universe
    pipeline: BorgesPipeline
    result: BorgesResult
    as2org: OrgMapping
    as2orgplus: OrgMapping
    #: Content-addressed stage cache shared by every pipeline this
    #: context spawns (the Table-6 sweep reuses the primary run's scrape
    #: and NER artifacts instead of recomputing them per combination).
    artifact_store: ArtifactStore = field(default_factory=ArtifactStore)

    @property
    def borges(self) -> OrgMapping:
        return self.result.mapping

    @classmethod
    def build(
        cls,
        universe_config: Optional[UniverseConfig] = None,
        borges_config: Optional[BorgesConfig] = None,
    ) -> "ExperimentContext":
        tracer = get_tracer()
        store = ArtifactStore()
        with tracer.span("context.build") as span:
            with tracer.span("context.universe"):
                universe = generate_universe(universe_config)
            pipeline = BorgesPipeline(
                universe.whois, universe.pdb, universe.web,
                config=borges_config, artifact_store=store,
            )
            result = pipeline.run()
            with tracer.span("context.baselines"):
                as2org = build_as2org_mapping(universe.whois)
                as2orgplus = build_as2orgplus_mapping(
                    universe.whois, universe.pdb
                )
        get_registry().gauge(
            "context_build_seconds", "wall-clock to build an ExperimentContext"
        ).set(span.duration)
        return cls(
            universe=universe,
            pipeline=pipeline,
            result=result,
            as2org=as2org,
            as2orgplus=as2orgplus,
            artifact_store=store,
        )


_CONTEXT_CACHE: Dict[UniverseConfig, ExperimentContext] = {}


def get_context(
    universe_config: Optional[UniverseConfig] = None,
) -> ExperimentContext:
    """A memoized context for the given universe configuration.

    Keyed by the whole (frozen) config: two configs that differ in any
    field build different universes.
    """
    config = universe_config or UniverseConfig()
    if config not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[config] = ExperimentContext.build(config)
    return _CONTEXT_CACHE[config]


# -- experiment implementations ------------------------------------------------


def _table3(ctx: ExperimentContext) -> Report:
    return Report(
        experiment_id="table3",
        title="ASes and Organizations obtained from each feature",
        rows=feature_contribution_table(ctx.result),
    )


def _table4(ctx: ExperimentContext) -> Report:
    validation = validate_extraction(
        ctx.pipeline._ner, ctx.universe.pdb, ctx.universe.annotations
    )
    row = validation.counts.as_table_row()
    return Report(
        experiment_id="table4",
        title="LLM information-extraction validation (notes and aka)",
        rows=[{"metric": k, "value": v} for k, v in row.items()],
        notes=[f"sample size: {validation.sample_size} records"],
    )


def _table5(ctx: ExperimentContext) -> Report:
    web_result = ctx.result.web_result
    if web_result is None:
        raise ExperimentError("pipeline ran without the web features")
    favicon_api = FaviconAPI(ctx.universe.web)
    validation = validate_classifier(
        web_result, favicon_api, ctx.universe.annotations
    )
    rows = []
    for label, counts in (
        ("Step 1", validation.step1),
        ("Step 2", validation.step2),
        ("All", validation.overall),
    ):
        row: Dict[str, object] = {"step": label}
        row.update(counts.as_table_row())
        rows.append(row)
    return Report(
        experiment_id="table5",
        title="LLM favicon-classifier validation (per step and overall)",
        rows=rows,
        notes=[f"favicon groups reviewed: {validation.groups_reviewed}"],
    )


def _table6(ctx: ExperimentContext) -> Report:
    rows = factor_combination_table(
        ctx.universe.whois,
        ctx.universe.pdb,
        ctx.universe.web,
        config=ctx.pipeline.config,
        client=ctx.pipeline.client,
        artifact_store=ctx.artifact_store,
    )
    return Report(
        experiment_id="table6",
        title="Organization Factor (theta) per feature combination",
        rows=rows,
        notes=[
            "paper: AS2Org 0.3343, as2org+ 0.3467 (+3.7%), Borges 0.3576 (+7%)"
        ],
    )


def _table7(ctx: ExperimentContext) -> Report:
    summary = population_change_summary(
        ctx.borges, ctx.as2org, ctx.universe.apnic
    )
    rows = [
        {
            "group": "Changed",
            "organizations": summary.changed_count,
            "mean_users_as2org": round(summary.mean_users_changed_as2org),
            "mean_users_borges": round(summary.mean_users_changed_borges),
        },
        {
            "group": "Unchanged",
            "organizations": summary.unchanged_count,
            "mean_users_as2org": round(summary.mean_users_unchanged),
            "mean_users_borges": round(summary.mean_users_unchanged),
        },
    ]
    return Report(
        experiment_id="table7",
        title="Mean AS population of changed vs unchanged organizations",
        rows=rows,
        notes=[
            f"total marginal growth: {summary.total_marginal_growth:,} users "
            f"({summary.marginal_growth_pct_of_internet:.1f}% of "
            f"{summary.total_users:,}) — paper: 193M of 4.21B (≈5%)",
        ],
    )


def _table8(ctx: ExperimentContext) -> Report:
    rows = top_population_growth(ctx.borges, ctx.as2org, ctx.universe.apnic)
    return Report(
        experiment_id="table8",
        title="Top 20 marginal AS population growths",
        rows=rows,
    )


def _table9(ctx: ExperimentContext) -> Report:
    rows = footprint_growth(ctx.borges, ctx.as2org, ctx.universe.apnic)
    summary = footprint_summary(ctx.borges, ctx.as2org, ctx.universe.apnic)
    return Report(
        experiment_id="table9",
        title="Top 20 country-level footprint growths",
        rows=rows,
        notes=[
            f"{summary.expanded_count} organizations expanded; mean marginal "
            f"increase {summary.mean_marginal_countries:.2f} countries "
            "(paper: 101 orgs, 2.37 countries)",
        ],
    )


def _fig7(ctx: ExperimentContext) -> Report:
    curves = theta_curves(ctx.universe.whois, ctx.as2org)
    theta = org_factor_from_mapping(ctx.as2org)
    return Report(
        experiment_id="fig7",
        title="Organization Factor construction: cumulative curves",
        series={
            name: ([float(x) for x in xs], [float(y) for y in ys])
            for name, (xs, ys) in curves.items()
        },
        notes=[f"as2org theta from curve: {theta:.4f}"],
    )


def _fig8(ctx: ExperimentContext) -> Report:
    series = transit_marginal_growth(
        ctx.borges, ctx.as2org, ctx.universe.asrank
    )
    rows = [
        {
            "window": f"top {window:,}",
            "cumulative_slope": round(slope, 4),
            "mean_marginal_growth": round(series.mean_growth_top(window), 3),
        }
        for window, slope in sorted(series.slopes.items())
    ]
    return Report(
        experiment_id="fig8",
        title="Marginal network growth of organizations along AS-Rank",
        rows=rows,
        series={
            "cumulative_growth": (
                [float(r) for r in series.ranks],
                [float(g) for g in series.cumulative_growth],
            )
        },
        notes=[
            "paper: top 100 gain ≈5 ASNs on average; slope ≈1 through the "
            "top 1,000; flat in the tail",
        ],
    )


def _fig9(ctx: ExperimentContext) -> Report:
    rows = hypergiant_sizes(ctx.as2org, ctx.as2orgplus, ctx.borges)
    return Report(
        experiment_id="fig9",
        title="Hypergiant organization sizes (AS2Org vs as2org+ vs Borges)",
        rows=rows,
        notes=[
            "paper: 5 hypergiants improve; EdgeCast +9 (Limelight), "
            "Google +3, Microsoft +1, Amazon +1",
        ],
    )


EXPERIMENTS: Dict[str, Callable[[ExperimentContext], Report]] = {
    "table3": _table3,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
}


def run_experiment(
    experiment_id: str,
    context: Optional[ExperimentContext] = None,
    universe_config: Optional[UniverseConfig] = None,
) -> Report:
    """Run one experiment by id, building/caching the context as needed."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    ctx = context or get_context(universe_config)
    with get_tracer().span(f"experiment.{experiment_id}"):
        report = runner(ctx)
    get_registry().counter(
        "experiments_run_total", "experiment executions", experiment=experiment_id
    ).inc()
    return report
