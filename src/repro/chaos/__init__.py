"""repro.chaos: declarative fault injection for the simulated dataflow.

A :class:`~repro.chaos.plan.FaultPlan` declares *what goes wrong when*
(task/node/zone crashes, standby loss, link partitions/delay/buffer loss,
control-RPC loss/duplication, compute slowdown, poison pills, DFS and
output-broker outages/brownouts, external-service fault windows);
the :class:`~repro.chaos.engine.ChaosEngine` schedules it against a running
job, deterministically from the plan's seed.  :mod:`repro.chaos.experiment`
is the fault-experiment engine every gate shares (job builder, run
primitive, failure-free baseline, verdict function); :mod:`repro.chaos.soak`
feeds it randomised plans.
:mod:`repro.chaos.poison` quarantines records that deterministically crash
their operator on every incarnation.  The named production incidents built
from these primitives live in :mod:`repro.scenarios`.
"""

from repro.chaos.engine import ChaosEngine, ControlPlaneChaos
from repro.chaos.plan import (
    FAULT_KINDS,
    TARGETLESS_KINDS,
    FaultPlan,
    FaultSpec,
    random_plan,
)
from repro.chaos.poison import PoisonRegistry
from repro.chaos.experiment import FaultResult, grade, run_experiment
from repro.chaos.soak import chaos_soak

__all__ = [
    "FAULT_KINDS",
    "TARGETLESS_KINDS",
    "FaultPlan",
    "FaultSpec",
    "random_plan",
    "ChaosEngine",
    "ControlPlaneChaos",
    "PoisonRegistry",
    "FaultResult",
    "run_experiment",
    "grade",
    "chaos_soak",
]
