"""Chaos soak: randomised fault schedules vs. the recovery protocol.

One schedule generator over the fault-experiment engine
(:mod:`repro.chaos.experiment`, which defines the verdict vocabulary): each
seed draws a :func:`~repro.chaos.plan.random_plan` against the deployed
job's real task and link names.  The seed fully determines both the plan
and the job, so a violating seed reruns identically under
``repro gates --only chaos --case N --verbose``; the ``chaos`` entry of
:data:`repro.harness.gates.GATES` declares the seeds CI runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def run_chaos_experiment(
    seed: int, max_faults: int = 4, n_records: int = 1200, limit: float = 120.0
) -> FaultResult:
    """One chaotic experiment: ``seed``'s random plan against the soak job,
    graded, with the simulated cluster released."""
    job = SoakJob(n_records=n_records)
    faults = random_faults(seed, n_records / job.rate + 0.5, max_faults)
    obs = run_experiment(job, faults, fast_chaos_config(seed=seed), limit)
    result = grade(seed, obs)
    obs.release()
    return result
