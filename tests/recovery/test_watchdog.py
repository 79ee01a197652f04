"""Recovery-liveness watchdog: stalls are announced, health is untouched.

Two properties:

1.  **A frozen recovery never dies silently.**  The ``recovery_freeze``
    fault (kill + permanent input partition) makes replay progress
    impossible; the watchdog must announce ``degraded:recovery_stalled``,
    escalate through the ladder, and terminate the run with a structured
    :class:`~repro.errors.RecoveryStallError` carrying the stuck phase and
    per-task replay positions — never the bare 120-simulated-second
    deadline death that seed 64853 used to produce.

2.  **Passivity.**  The watchdog piggybacks on checkpoint-coordinator
    ticks and adds zero simulation events, so enabling it must leave a
    healthy (and even a failure-and-recover) run byte-identical — checked
    here run-vs-run and, stronger, by the golden determinism digests whose
    recorded runs include a kill.
"""

import pytest

from repro.chaos.plan import FaultPlan
from repro.chaos.experiment import SoakJob, fast_chaos_config, grade, run_experiment
from repro.config import JobConfig, WatchdogConfig
from repro.errors import JobError, RecoveryStallError
from repro.recovery.watchdog import RecoveryWatchdog
from repro.trace.timeline import PHASE_ORDER

LIMIT = 120.0


def freeze_plan(at=0.4, target="stage1[0]"):
    return FaultPlan(seed=0).add(at, "recovery_freeze", target=target)


def frozen_run(config=None, limit=LIMIT):
    """The freeze plan through the shared run primitive: the stall comes
    back as the observation's ``error``, not as an exception."""
    config = config or fast_chaos_config(seed=0, checkpoint_interval=0.25)
    return run_experiment(SoakJob(), freeze_plan(), config, limit)


class TestStallDetection:
    def test_frozen_recovery_ends_in_a_structured_stall(self):
        obs = frozen_run()
        err = obs.error
        assert isinstance(err, RecoveryStallError)
        assert grade("freeze", obs).outcome == "violation:recovery-stalled"
        assert err.phase, "stall error must name the stuck phase"
        assert err.last_progress_at is not None
        assert err.last_progress_at < LIMIT
        assert err.replay_positions, "per-task replay positions must ride along"
        for name, pos in err.replay_positions.items():
            assert "status" in pos and "records_processed" in pos, name

    def test_stall_is_announced_not_silent(self):
        jm = frozen_run().jm
        kinds = [kind for (_t, kind, _w) in jm.recovery_events]
        assert "degraded:recovery_stalled" in kinds
        assert any(kind.startswith("recovery-stalled:") for kind in kinds)
        assert jm.watchdog.stalls_detected >= 1
        assert jm.watchdog.escalations >= 1
        # The terminal verdict is a watchdog decision, not a deadline death:
        # the job "crashed" via the structured stall error.
        assert any(
            isinstance(exc, RecoveryStallError) for (_n, exc) in jm.crashed
        )

    def test_stall_names_the_phase_the_bus_recorded(self):
        obs = frozen_run()
        stalls = [
            kind.split(":", 1)[1]
            for (_t, kind, _w) in obs.jm.recovery_events
            if kind.startswith("recovery-stalled:")
        ]
        known = set(PHASE_ORDER) | {
            "recovering", "failed:awaiting-recovery", "post-recovery-drain",
            "finished",
        }
        assert stalls and all(phase in known for phase in stalls)
        assert obs.error.phase in known
        # The first stall names the victim's open phase in the trace view.
        markers = []
        for event in obs.jm.trace:
            if event.kind == "recovery-stalled":
                break
            if event.kind in ("phase-begin", "phase-mark") and event.subject in (
                "stage1[0]", "*",
            ):
                markers.append(event.arg("phase"))
        assert stalls[0] == markers[-1] == "nondeterminism-replay"

    def test_stall_verdict_surfaces_in_metrics(self):
        from repro.metrics.collectors import stall_summary

        summary = stall_summary(frozen_run().jm)
        assert summary["verdict"] == "stalled"
        assert summary["stalls_detected"] >= 1
        assert summary["stalls_announced"] >= 1

    def test_deadline_expiry_is_structured_with_watchdog_disabled(self):
        """Even with the watchdog off, a hung run's deadline death must be a
        structured diagnostic (satellite: run_until_done), not a bare
        JobError string."""
        config = fast_chaos_config(seed=0, checkpoint_interval=0.25)
        config.watchdog = WatchdogConfig(enabled=False)
        err = frozen_run(config, limit=20.0).error
        assert isinstance(err, RecoveryStallError)
        assert "did not finish within" in str(err)
        assert err.replay_positions


class TestPassivity:
    def _run(self, enabled):
        config = fast_chaos_config(seed=3, checkpoint_interval=0.25)
        config.watchdog = WatchdogConfig(enabled=enabled)
        plan = FaultPlan(seed=3).add(0.4, "task_kill", target="stage1[0]")
        return grade(3, run_experiment(SoakJob(), plan, config, LIMIT))

    def test_kill_and_recover_run_identical_with_watchdog_on_and_off(self):
        on = self._run(enabled=True)
        off = self._run(enabled=False)
        assert on.outcome == off.outcome == "transparent"
        assert on.obs.duration == off.obs.duration
        assert on.obs.projection == off.obs.projection
        assert on.obs.recovery_events == off.obs.recovery_events

    def test_golden_digests_unchanged(self):
        """The golden record run includes a kill at t=0.4; any event the
        watchdog inserted would shift its schedule hash."""
        from repro.bench import check_goldens

        assert check_goldens() == []


class TestConfigAndTimeout:
    def test_auto_stall_timeout_tracks_config(self):
        from repro.external.kafka import DurableLog
        from repro.runtime.jobmanager import JobManager
        from repro.sim.core import Environment
        from repro.workloads.synthetic import synthetic_chain

        config = fast_chaos_config(seed=0, checkpoint_interval=0.25)
        env = Environment()
        log = DurableLog()
        graph = synthetic_chain(log, depth=2, parallelism=1,
                                total_per_partition=10)
        jm = JobManager(env, graph, config)
        watchdog = jm.watchdog
        # recovery_step_deadline=5.0 dominates: 2 * 5.0 + 1.0.
        assert watchdog.stall_timeout == pytest.approx(11.0)
        # An explicit setting wins over the derivation.
        config.watchdog.stall_timeout = 42.0
        assert watchdog.stall_timeout == 42.0

    def test_watchdog_config_validation(self):
        with pytest.raises(JobError):
            JobConfig(watchdog=WatchdogConfig(stall_timeout=-1.0)).validate()
        with pytest.raises(JobError):
            JobConfig(watchdog=WatchdogConfig(escalation_limit=-1)).validate()
        JobConfig(watchdog=WatchdogConfig(stall_timeout=None)).validate()

    def test_disarmed_watchdog_reports_no_progress_timestamp(self):
        from repro.external.kafka import DurableLog
        from repro.runtime.jobmanager import JobManager
        from repro.sim.core import Environment
        from repro.workloads.synthetic import synthetic_chain

        env = Environment()
        log = DurableLog()
        graph = synthetic_chain(log, depth=2, parallelism=1,
                                total_per_partition=10)
        jm = JobManager(env, graph, fast_chaos_config(seed=0))
        assert isinstance(jm.watchdog, RecoveryWatchdog)
        assert jm.watchdog.last_progress_at is None
