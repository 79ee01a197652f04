"""What each fault-tolerance mode builds and how its recovery looks from
outside: the logs and standbys deployed, the victim's recovery events, the
phases of its recovery timeline, the Table 1 consistency cells, and the
faults a mode refuses.  These are per-mode facts, independent of which
coordinator class carries the recovery out."""

import pytest

from repro.chaos import ChaosEngine, FaultPlan
from repro.config import FaultToleranceMode as Mode
from repro.errors import ChaosError, RecoveryError
from repro.harness.figures import table1_assumptions
from repro.trace.timeline import build_timeline

from tests.chaos.helpers import deploy_chaos_chain
from tests.runtime.helpers import make_config
from tests.runtime.test_recovery import (
    TagOperator,
    run_connected_pair_failure,
    run_job,
)

#: mode -> (in-flight log on tasks with outputs, causal log, standbys,
#: receiver-side SEEP dedup).
BUILDS = {
    Mode.NONE: (False, False, False, False),
    Mode.GLOBAL_ROLLBACK: (False, False, False, False),
    Mode.CLONOS: (True, True, True, False),
    Mode.GAP_RECOVERY: (False, False, True, False),
    Mode.DIVERGENT: (True, False, True, False),
    Mode.SEEP: (True, False, True, True),
}

LOCAL_PHASES = [
    "failure-detection", "standby-activation", "network-reconfigure", "catch-up",
]

#: mode -> (victim's recovery-event kinds, timeline phase names) when the
#: middle task of source -> mid -> sink is killed.
RECOVERIES = {
    Mode.GLOBAL_ROLLBACK: (
        ["detected"],
        ["failure-detection", "task-cancellation", "checkpoint-restore",
         "task-restart", "catch-up"],
    ),
    Mode.CLONOS: (
        ["detected", "recovered"],
        ["failure-detection", "standby-activation", "network-reconfigure",
         "determinant-fetch", "inflight-replay", "nondeterminism-replay",
         "dedup-flush", "catch-up"],
    ),
    Mode.GAP_RECOVERY: (["detected", "recovered"], LOCAL_PHASES),
    Mode.DIVERGENT: (["detected", "recovered"], LOCAL_PHASES),
    Mode.SEEP: (["detected", "recovered"], LOCAL_PHASES),
}

#: (mode, deterministic operator) -> (lost, duplicated, inconsistent).
TABLE1 = {
    ("clonos", True): (0, 0, 0),
    ("clonos", False): (0, 0, 0),
    ("seep", True): (0, 0, 0),
    ("seep", False): (8, 0, 0),
    ("divergent", True): (0, 717, 0),
    ("divergent", False): (0, 717, 0),
    ("gap_recovery", True): (240, 0, 0),
    ("gap_recovery", False): (240, 0, 0),
}


@pytest.mark.parametrize("mode", list(BUILDS), ids=lambda m: m.name)
def test_mode_builds_its_logs_standbys_and_dedup(mode):
    _env, _log, jm = deploy_chaos_chain(mode=mode)
    inflight, causal, standbys, seep = BUILDS[mode]
    for vertex in jm.vertices.values():
        task = vertex.task
        if task.out_edges:
            assert (task.inflight is not None) is inflight, vertex.name
        assert (task.causal is not None) is causal, vertex.name
        assert (vertex.standby is not None) is standbys, vertex.name
        assert task.seep_dedup is seep, vertex.name


def test_clonos_without_sharing_builds_no_causal_log():
    config = make_config(Mode.CLONOS)
    config.clonos.determinant_sharing_depth = 0
    _env, _log, jm = deploy_chaos_chain(config=config)
    assert all(v.task.causal is None for v in jm.vertices.values())
    assert all(
        v.task.inflight is not None for v in jm.vertices.values() if v.task.out_edges
    )


@pytest.mark.parametrize("mode", list(RECOVERIES), ids=lambda m: m.name)
def test_victim_recovery_events_and_phases(mode):
    jm, _log = run_job(mode, TagOperator, kill=["mid[0]"])
    kinds, phases = RECOVERIES[mode]
    assert [k for _t, k, who in jm.recovery_events if who == "mid[0]"] == kinds
    (incident,) = build_timeline(jm.trace).incidents
    assert [phase.name for phase in incident.phases] == phases
    assert incident.end_source == "recovered-event"


def test_mode_none_fails_the_job():
    with pytest.raises(RecoveryError, match=r"mid\[0\] failed and mode=NONE"):
        run_job(Mode.NONE, TagOperator, kill=["mid[0]"])


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.name)
def test_detection_delay(mode):
    """Heartbeat timeout when the whole job rolls back (vanilla Flink),
    connection reset otherwise -- including NONE, which then fails."""
    env, _log, jm = deploy_chaos_chain(mode=mode)
    env.schedule_callback(0.2, lambda: jm.kill_task("stage1[0]"))
    try:
        env.run(until=1.0)
    except RecoveryError:
        assert mode is Mode.NONE
    ((killed, _victim),) = jm.failures_injected
    (detected,) = [t for t, kind, _who in jm.recovery_events if kind == "detected"]
    cost = jm.config.cost
    expected = (
        cost.heartbeat_timeout
        if mode is Mode.GLOBAL_ROLLBACK
        else cost.connection_failure_detection
    )
    assert detected - killed == pytest.approx(expected)


@pytest.mark.parametrize("mode", [Mode.CLONOS, Mode.GLOBAL_ROLLBACK], ids=lambda m: m.name)
def test_connected_pair_rolls_the_job_back_once(mode):
    """Two connected kills beyond DSD=1: Clonos falls back to the global
    rung (Figure 4's orphan), global rollback restarts anyway -- either way
    exactly one job restart covers both failures, at-least-once."""
    config = make_config(mode, checkpoint_interval=0.3)
    config.clonos.determinant_sharing_depth = 1
    jm, counts = run_connected_pair_failure(config)
    kinds = [kind for _t, kind, _who in jm.recovery_events]
    assert kinds.count("detected") == 2
    assert kinds.count("global-restart-begin") == 1
    assert kinds.count("global-restart-done") == 1
    assert kinds.count("orphan-fallback") == (1 if mode is Mode.CLONOS else 0)
    assert set(counts) == set(range(3000))
    assert sum(counts.values()) - len(counts) == 176


@pytest.mark.parametrize(
    "mode,accepted",
    [
        (Mode.CLONOS, True),
        (Mode.DIVERGENT, True),
        (Mode.SEEP, True),
        (Mode.GAP_RECOVERY, False),
        (Mode.GLOBAL_ROLLBACK, False),
    ],
    ids=lambda v: v.name if isinstance(v, Mode) else str(v),
)
def test_link_loss_needs_upstream_inflight_logs(mode, accepted):
    _env, _log, jm = deploy_chaos_chain(mode=mode)
    engine = ChaosEngine(jm, FaultPlan().add(0.2, "link_loss", target="*"))
    if accepted:
        engine.arm()
    else:
        with pytest.raises(ChaosError, match=f"in-flight-log mode.*{mode.name}"):
            engine.arm()


def test_table1_cells():
    cells = {
        (c.mode, c.deterministic): (c.lost, c.duplicated, c.inconsistent)
        for c in table1_assumptions()
    }
    assert cells == TABLE1
