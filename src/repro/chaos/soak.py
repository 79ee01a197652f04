"""Chaos soak: randomised fault schedules vs. the recovery protocol.

One schedule generator over the fault-experiment engine
(:mod:`repro.chaos.experiment`, which defines the verdict vocabulary): each
seed draws a :func:`~repro.chaos.plan.random_plan` against the deployed
job's real task and link names.  The seed fully determines both the plan
and the job, so a violating seed reruns identically under
``repro chaos --seed N``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.chaos.experiment import (
    FaultResult,
    SoakJob,
    fast_chaos_config,
    grade,
    run_experiment,
)
from repro.chaos.plan import random_plan


def random_faults(
    seed: int, window: float, max_faults: int, kinds: Optional[Sequence[str]] = None
):
    """A fault schedule drawn by :func:`~repro.chaos.plan.random_plan` once
    the job is deployed, so it targets real task and link names."""

    def plan(jm):
        links = sorted(
            link.name
            for vertex in jm.vertices.values()
            for _edge, channels in vertex.out_links
            for _f, _d, link in channels
        )
        return random_plan(
            seed,
            window,
            task_names=sorted(jm.vertices),
            link_names=links,
            max_faults=max_faults,
            kinds=kinds,
        )

    return plan


def chaos_soak(
    seeds: Iterable[int],
    max_faults: int = 4,
    n_records: int = 1200,
    limit: float = 120.0,
) -> List[FaultResult]:
    """Run one chaotic experiment per seed; returns the graded results."""
    job = SoakJob(n_records=n_records)
    window = n_records / job.rate + 0.5
    return [
        grade(
            seed,
            run_experiment(
                job,
                random_faults(seed, window, max_faults),
                fast_chaos_config(seed=seed),
                limit,
            ),
        )
        for seed in seeds
    ]
