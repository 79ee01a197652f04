"""Production incident scenario pack.

A :class:`~repro.scenarios.model.Scenario` is *data*: phased fault
schedules (built from :class:`~repro.chaos.plan.FaultSpec` primitives),
workload shaping (input bursts, hot-key skew), and an explicit, machine-
checkable verdict spec.  The runner executes a scenario against the
synthetic nondeterministic chain and grades the run; the library holds the
named production incidents the CI matrix executes (``repro gates --only
scenarios``).
"""

from repro.scenarios.model import (
    FaultEntry,
    Phase,
    Scenario,
    VerdictSpec,
    WorkloadSpec,
)
from repro.scenarios.runner import ScenarioResult, case_label, run_scenario
from repro.scenarios.library import SCENARIOS, scenario_by_name

__all__ = [
    "FaultEntry",
    "Phase",
    "Scenario",
    "VerdictSpec",
    "WorkloadSpec",
    "ScenarioResult",
    "case_label",
    "run_scenario",
    "SCENARIOS",
    "scenario_by_name",
]
