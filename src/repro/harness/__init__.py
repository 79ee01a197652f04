"""Experiment harness: runners and per-figure reproductions."""

from repro.harness.experiment import (
    ExperimentResult,
    deploy_experiment,
    run_experiment,
)
from repro.harness.figures import (
    ConsistencyCell,
    FailureRunResult,
    LatencyOverheadRow,
    OverheadRow,
    SpillRow,
    default_cost,
    experiment_config,
    fig5_overhead,
    fig6_multi_failures,
    fig6_single_failure,
    latency_overhead,
    memory_spill_study,
    nexmark_graph_fn,
    table1_assumptions,
)
from repro.harness.reporters import render_series, render_table

__all__ = [
    "ConsistencyCell",
    "ExperimentResult",
    "FailureRunResult",
    "LatencyOverheadRow",
    "OverheadRow",
    "SpillRow",
    "default_cost",
    "deploy_experiment",
    "experiment_config",
    "fig5_overhead",
    "fig6_multi_failures",
    "fig6_single_failure",
    "latency_overhead",
    "memory_spill_study",
    "nexmark_graph_fn",
    "render_series",
    "render_table",
    "run_experiment",
    "table1_assumptions",
]
