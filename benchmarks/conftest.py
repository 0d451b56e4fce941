"""Shared fixtures for the benchmark suite.

Benches run at the default (paper-shaped, ≈14k-ASN) scale; the context is
built once per session.  Every bench times its experiment with a single
pedantic round (these are dataset-scale computations, not microbenches)
and prints the regenerated table so `pytest benchmarks/ --benchmark-only`
doubles as the paper-reproduction harness.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext.build()


def run_and_render(benchmark, ctx, experiment_id, max_rows=25):
    """Time one experiment and print its rendered report."""
    from repro.experiments import run_experiment

    report = benchmark.pedantic(
        lambda: run_experiment(experiment_id, context=ctx),
        rounds=1,
        iterations=1,
    )
    print()
    print(report.render(max_rows=max_rows))
    return report
