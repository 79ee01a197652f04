"""Named perf suites: the paper's figure workloads, timed end-to-end.

Each suite runs a figure workload at fixed parameters and reports its wall
clock plus *simulated-records per wall-second* — total source records the
suite's runs ingest (a fixed property of the workload parameters) divided
by measured wall time.  Because the simulated work is frozen by the
determinism gate (:mod:`repro.bench.golden`), records/s is a pure measure
of simulator speed, comparable across commits.

``BASELINE`` pins the pre-optimisation measurements this PR started from so
``BENCH_perf.json`` always carries its own before/after comparison; CI
uploads the file as an artifact to build the speed trajectory over time.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.harness.figures import (
    fig5_overhead,
    fig6_multi_failures,
    fig6_single_failure,
)


@dataclass(frozen=True)
class SuiteSpec:
    """One named benchmark suite."""

    name: str
    description: str
    #: Total source records ingested across all of the suite's runs —
    #: derived from the workload parameters, not measured.
    simulated_records: int
    runner: Callable[[], None]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    wall_clock_s: float
    simulated_records: int

    @property
    def records_per_wall_second(self) -> float:
        return self.simulated_records / self.wall_clock_s if self.wall_clock_s else 0.0


def _run_fig5() -> None:
    # 4 queries x 3 modes (flink, DSD=1, DSD=Full) x 6000 events x 2 parts.
    fig5_overhead(queries=("Q1", "Q2", "Q3", "Q8"))


def _run_fig6_single() -> None:
    # 2 modes x 36000 events x 2 partitions, one mid-run kill each.
    fig6_single_failure()


def _run_fig6_multi() -> None:
    # 2 modes x 14000 events x 5 partitions, three staggered kills each —
    # the causal-log stress test (depth-5 chain under full DSD).
    fig6_multi_failures()


SUITES: Dict[str, SuiteSpec] = {
    "fig5": SuiteSpec(
        name="fig5",
        description="overhead under normal operation (Q1,Q2,Q3,Q8 x 3 modes)",
        simulated_records=4 * 3 * 6000 * 2,
        runner=_run_fig5,
    ),
    "fig6-single": SuiteSpec(
        name="fig6-single",
        description="single failure, Q3, clonos vs flink",
        simulated_records=2 * 36000 * 2,
        runner=_run_fig6_single,
    ),
    "fig6-multi": SuiteSpec(
        name="fig6-multi",
        description="three staggered failures on the depth-5 synthetic chain",
        simulated_records=2 * 14000 * 5,
        runner=_run_fig6_multi,
    ),
}

#: Wall clocks of the same suites measured on the pre-optimisation tree
#: (commit 9c811c1), same host class as CI.  Kept so every BENCH_perf.json
#: is self-describing about where the trajectory started.
BASELINE: Mapping[str, float] = {
    "fig5": 4.02,
    "fig6-single": 16.75,
    "fig6-multi": 130.75,
}


def run_suite(name: str) -> SuiteResult:
    """Run one suite to completion and time it."""
    spec = SUITES[name]
    started = time.perf_counter()
    spec.runner()
    elapsed = time.perf_counter() - started
    return SuiteResult(
        name=name,
        wall_clock_s=elapsed,
        simulated_records=spec.simulated_records,
    )


def perf_payload(
    results: List[SuiteResult], golden_failures: Optional[List[str]] = None
) -> Dict[str, object]:
    """The ``BENCH_perf.json`` payload for a set of suite results."""
    suites: Dict[str, Dict[str, object]] = {}
    total = 0.0
    baseline_total = 0.0
    for result in results:
        baseline = BASELINE.get(result.name)
        entry: Dict[str, object] = {
            "description": SUITES[result.name].description,
            "wall_clock_s": round(result.wall_clock_s, 3),
            "simulated_records": result.simulated_records,
            "records_per_wall_second": round(result.records_per_wall_second, 1),
        }
        if baseline is not None:
            entry["baseline_wall_clock_s"] = baseline
            entry["speedup_vs_baseline"] = round(baseline / result.wall_clock_s, 2)
            baseline_total += baseline
        suites[result.name] = entry
        total += result.wall_clock_s
    payload: Dict[str, object] = {
        "bench": "perf",
        "python": platform.python_version(),
        "suites": suites,
        "total_wall_clock_s": round(total, 3),
    }
    if baseline_total:
        payload["baseline_total_wall_clock_s"] = round(baseline_total, 3)
        payload["speedup_vs_baseline"] = round(baseline_total / total, 2) if total else 0.0
    if golden_failures is not None:
        payload["golden_ok"] = not golden_failures
        payload["golden_failures"] = list(golden_failures)
    return payload
