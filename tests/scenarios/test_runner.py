"""The scenario runner: verdict grading, determinism, passivity."""

from repro.metrics.collectors import scenario_summary
from repro.scenarios import (
    FaultEntry,
    Phase,
    Scenario,
    VerdictSpec,
    WorkloadSpec,
    run_scenario,
)

#: A small, fast incident: one mid-pipeline kill over a short workload.
SMALL = Scenario(
    name="small-kill",
    description="one kill, small workload",
    phases=(
        Phase(
            name="kill",
            at=0.15,
            faults=(FaultEntry(kind="task_kill", target="stage1[0]"),),
        ),
    ),
    workload=WorkloadSpec(n_records=600),
    verdict=VerdictSpec(max_recovery_s=10.0),
)


def test_single_kill_passes_strict_verdict():
    result = run_scenario(SMALL)
    assert result.ok, result.checks
    assert result.checks["completed"] == "ok"
    assert result.checks["output"] == "ok"
    assert result.checks["recovery"] == "ok"
    assert result.checks["watchdog"] == "ok"
    assert result.missing == 0 and result.duplicated == 0
    assert result.expected == result.delivered > 0
    assert result.recovery_time is not None
    assert result.duration_overhead >= 1.0


def test_same_seed_is_byte_identical():
    a = run_scenario(SMALL)
    b = run_scenario(SMALL)
    assert a.transcript_digest == b.transcript_digest
    assert a.obs.recovery_events == b.obs.recovery_events
    assert a.to_dict() == b.to_dict()


def test_different_seed_diverges():
    a = run_scenario(SMALL)
    b = run_scenario(SMALL, seed=7)
    assert b.seed == 7
    assert a.transcript_digest != b.transcript_digest


def test_impossible_recovery_budget_fails_the_verdict():
    strict = Scenario(
        name="too-strict",
        description="",
        phases=SMALL.phases,
        workload=SMALL.workload,
        verdict=VerdictSpec(max_recovery_s=0.0001),
    )
    result = run_scenario(strict)
    assert not result.ok
    assert result.checks["recovery"].startswith("fail")
    assert result.checks["output"] == "ok"  # still exactly-once


def test_a_seeded_run_is_labelled_by_the_case_that_replays_it(capsys):
    from repro.harness.gates import report

    strict = Scenario(
        name="too-strict",
        description="",
        phases=SMALL.phases,
        workload=SMALL.workload,
        verdict=VerdictSpec(max_recovery_s=0.0001),
    )
    result = run_scenario(strict, seed=7)
    assert result.label == "too-strict/7"
    assert result.name == result.to_dict()["name"] == "too-strict"
    assert run_scenario(SMALL).label == "small-kill"
    assert report("scenarios", [result]) == 1
    out = capsys.readouterr().out
    # The row and the violations tally both name the case to pass --case.
    assert any(line.startswith("too-strict/7 ") for line in out.splitlines()), out
    assert out.rstrip().endswith("1 violations (too-strict/7)"), out


def test_result_dict_shape():
    result = run_scenario(SMALL)
    data = result.to_dict()
    for key in (
        "name", "verdict", "checks", "seed", "duration_s",
        "baseline_duration_s", "duration_overhead", "expected", "delivered",
        "missing", "duplicated", "quarantined", "degradations",
        "recovery_time_s", "transcript_digest", "chaos",
    ):
        assert key in data, key
    assert data["verdict"] == "pass"
    assert data["chaos"]["applied"] == 1


def test_summaries_agree():
    results = [run_scenario(SMALL)]
    summary = scenario_summary(results)
    assert summary["verdict"] == "ok"
    assert summary["passed"] == summary["scenarios"] == 1
    assert summary["worst_recovery_scenario"] == "small-kill"
    # The dict form grades identically.
    assert scenario_summary([r.to_dict() for r in results])["verdict"] == "ok"


def test_scenario_runs_leave_goldens_untouched():
    """Passivity: running scenarios must not perturb the byte-for-byte
    golden digests of the perf workload (no global state leaks out of the
    scenario machinery)."""
    from repro.bench.golden import check_goldens

    run_scenario(SMALL)
    assert check_goldens() == []
