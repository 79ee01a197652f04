"""The chaos soak, property-style: random fault schedules against the
recovery protocol.

The acceptance property: every run is ``transparent`` (exactly-once on
input origins) or an ``announced-degradation`` to global-rollback semantics
(at-least-once) — never silent loss, never silent duplication, never a hang
(a deadline expiry grades ``violation:recovery-stalled``, which Hypothesis
reports as a failure with the offending seed).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, chaos_soak
from repro.chaos.experiment import (
    DEGRADATION_MARKERS,
    SoakJob,
    fast_chaos_config,
    grade,
    run_experiment,
)

LIMIT = 120.0


def describe(result):
    chaos = result.obs.engine.summary()
    return (
        f"seed {result.label}: outcome={result.outcome} ({result.detail}) "
        f"missing={result.missing} duplicated={result.duplicated} "
        f"faults={chaos.get('applied')} ({chaos.get('kinds')})"
    )


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    max_faults=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=10, deadline=None)
def test_random_fault_schedules_never_violate(seed, max_faults):
    [result] = chaos_soak([seed], max_faults=max_faults, limit=LIMIT)
    assert result.ok, describe(result)
    assert result.obs.duration < LIMIT
    if result.outcome != "transparent":
        # Degradation is only acceptable when announced.
        assert result.obs.degradations, describe(result)


@st.composite
def recovery_overlap_scenarios(draw):
    """Fault schedules aimed at the recovery machinery itself: the standby
    dies right around the kill (standby crash during activation), and a
    second forced kill lands while the first recovery is still running."""
    # The 1200-record default workload drains around t=0.6: keep the kill
    # well inside the run so the victim is never already FINISHED.
    kill_at = draw(st.floats(min_value=0.2, max_value=0.5))
    return dict(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        victim=draw(st.sampled_from(["stage1[0]", "stage1[1]", "stage2[0]"])),
        kill_at=kill_at,
        # Negative: standby dies before the kill (slow path from the start).
        # Small positive: standby dies inside the activation window.
        standby_delta=draw(st.floats(min_value=-0.05, max_value=0.04)),
        refail_delta=draw(st.floats(min_value=0.02, max_value=0.15)),
        second_kill=draw(st.booleans()),
    )


@given(recovery_overlap_scenarios())
@settings(max_examples=10, deadline=None)
def test_faults_during_ongoing_recovery_never_violate(params):
    plan = FaultPlan(seed=params["seed"])
    plan.add(
        max(0.0, params["kill_at"] + params["standby_delta"]),
        "standby_loss",
        target=params["victim"],
    )
    plan.add(params["kill_at"], "task_kill", target=params["victim"])
    if params["second_kill"]:
        # The engine kills with force=True, so this lands mid-recovery.
        plan.add(
            params["kill_at"] + params["refail_delta"],
            "task_kill",
            target=params["victim"],
        )
    config = fast_chaos_config(seed=params["seed"])
    result = grade(params["seed"], run_experiment(SoakJob(), plan, config, LIMIT))
    assert result.ok, describe(result)
    assert result.obs.duration < LIMIT
    kills = [k for (_t, k, _w) in result.obs.recovery_events if k == "chaos:task_kill"]
    assert kills, "the kill must actually apply"


def test_degraded_runs_announce_themselves():
    # Force the ladder to exhaust: dead standby plus a step deadline below
    # the deploy time.  The verdict must be the *announced* degradation.
    config = fast_chaos_config()
    config.clonos.recovery_step_deadline = 0.05
    plan = (
        FaultPlan(seed=3)
        .add(0.20, "standby_loss", target="stage1[0]")
        .add(0.25, "task_kill", target="stage1[0]")
    )
    result = grade(3, run_experiment(SoakJob(), plan, config, LIMIT))
    assert result.outcome == "announced-degradation", describe(result)
    assert any(k in DEGRADATION_MARKERS for (_t, k, _w) in result.obs.degradations)
    assert result.missing == 0, "degraded still means at-least-once"
