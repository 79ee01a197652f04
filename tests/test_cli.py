"""Tests for the experiment CLI."""

import argparse
from functools import partial

import pytest

from repro.cli import build_parser, main


VERBS = {
    "figures", "trace", "bench", "profile", "lint", "verify-static", "sanitize",
    "gates", "audit",
}


def test_parser_knows_all_subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == VERBS
    for command in VERBS:
        assert callable(parser.parse_args([command]).fn)


def test_figures_fig5_prints_both_tables(capsys):
    assert main(["figures", "--only", "fig5", "--events", "300"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out and "Section 7.3" in out
    assert "Q1" in out and "clonos DSD=1" in out


def test_figures_rejects_unknown_figure(capsys):
    assert main(["figures", "--only", "fig5,fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown figures: fig99" in err
    assert len(err.strip().splitlines()) == 1


def test_table1_prints_matrix(capsys):
    assert main(["figures", "--only", "table1", "--events", "1200"]) == 0
    out = capsys.readouterr().out
    assert "clonos" in out and "gap_recovery" in out
    assert "exactly-once" in out


def test_figure6_kill_after_the_input_ends_exits_2(capsys):
    # 3000 events at 6000 rec/s end at 0.5 s, before the 4 s kill: there is
    # no recovery to measure, which is a usage error, not a crash.
    assert main(["figures", "--only", "fig6-single", "--events", "3000"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "fig6-single" in err and "at 4s never landed" in err
    assert "ended at 0.50s simulated" in err


def test_unexpected_error_in_a_verb_exits_2_with_traceback(capsys, monkeypatch):
    from repro.harness import gates

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(gates, "run_chaos_experiment", broken)
    assert main(["gates", "--only", "chaos", "--case", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# -- the fault gates: one reporter, one exit-code convention -----------------

TALLY = "transparent, {} announced-degradation, {} skipped, {} violations"


def test_chaos_one_seed(capsys):
    assert main(["gates", "--only", "chaos", "--case", "3"]) == 0
    out = capsys.readouterr().out
    assert "seed  verdict" in out and "rpc drops" in out
    assert "\n1 runs: 1 " + TALLY.format(0, 0, 0) in out


def test_chaos_hang_is_a_violation_row_not_a_traceback(capsys, monkeypatch):
    # Every seed misses the 0.1 s deadline: each is one violation row, the
    # later seeds still run, and the table and tally still print.
    from repro.harness import gates

    monkeypatch.setattr(
        gates,
        "run_chaos_experiment",
        partial(gates.run_chaos_experiment, n_records=300, limit=0.1),
    )
    assert main(["gates", "--only", "chaos", "--seeds", "0:3"]) == 1
    out = capsys.readouterr().out
    assert out.count("violation:recovery-stalled") >= 3
    assert "\n3 runs: 0 " + TALLY.format(0, 0, 3) + " (0, 1, 2)" in out


def test_audit_self_test_flags_every_injection(capsys):
    assert main(["audit", "--inject", "4", "--seed", "1"]) == 0
    assert "audit self-test: injected=4 detected=4" in capsys.readouterr().out


def test_audit_soak_one_seed(capsys):
    # The integrity gate is the corruption soak the audit sweep rides along.
    assert main(["gates", "--only", "integrity", "--case", "3"]) == 0
    out = capsys.readouterr().out
    assert "flagged in run  flagged by audit" in out
    assert "\n1 runs: " in out and "0 violations" in out


def test_transparency_payload_keys(capsys, tmp_path):
    import json

    path = tmp_path / "BENCH_transparency.json"
    argv = ["gates", "--only", "transparency", "--case", "pair-p1", "--json", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "topology  ops  tasks  cases  transparent" in out
    assert "\n9 runs: 9 " + TALLY.format(0, 0, 0) in out
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "suite", "topologies", "cases_total", "transparent",
        "announced_degradation", "skipped", "violations", "violating_cases",
    }
    (entry,) = payload["topologies"]
    assert set(entry) == {
        "name", "operators", "tasks", "expected_records", "baseline_duration_s",
        "cases", "transparent", "announced_degradation", "skipped", "violations",
    }
    assert payload["cases_total"] == entry["cases"] == 9


def test_scenarios_payload_keys(capsys, tmp_path):
    import json

    path = tmp_path / "BENCH_scenarios.json"
    argv = ["gates", "--only", "scenarios", "--case", "crashloop,poison_pill",
            "--json", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "scenario" in out and "failed checks" in out
    assert "\n2 runs: 1 " + TALLY.format(1, 0, 0) in out
    payload = json.loads(path.read_text())
    assert set(payload) == {"summary", "scenarios"}
    assert set(payload["summary"]) == {
        "scenarios", "passed", "failed", "verdict",
        "worst_recovery_s", "worst_recovery_scenario",
    }
    assert [s["name"] for s in payload["scenarios"]] == ["poison_pill", "crashloop"]
    for entry in payload["scenarios"]:
        assert set(entry) == {
            "name", "verdict", "checks", "seed", "duration_s",
            "baseline_duration_s", "duration_overhead", "expected", "delivered",
            "missing", "duplicated", "quarantined", "degradations",
            "recovery_time_s", "transcript_digest", "chaos",
        }
        assert entry["verdict"] == "pass"


def test_gates_list_prints_labels_and_runs_nothing(capsys):
    assert main(["gates", "--only", "chaos,scenarios", "--seeds", "4,9", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["chaos        4", "chaos        9"]
    assert "scenarios    zone_failover/4" in lines
    assert "scenarios    zone_failover/9" in lines
    assert len(lines) == 2 + 2 * 12  # every scenario under each seed


@pytest.mark.parametrize(
    "argv, message",
    [
        # A gate that selects nothing must not be green.
        (["gates", "--only", "chaos", "--seeds", "5:2"], "selects no seeds"),
        (["gates", "--only", "integrity", "--seeds", "3:3"], "selects no seeds"),
        (["gates", "--only", "chaos", "--seeds", "abc"], "malformed --seeds"),
        (["gates", "--only", "integrity", "--seeds", "1,x"], "malformed --seeds"),
        (["gates", "--case", " , "], "names nothing"),
        (["gates", "--only", ","], "names nothing"),
        (["gates", "--only", "chaos,nope"], "unknown gates"),
        (["gates", "--only", "scenarios", "--case", "crashloop,nope"],
         "no case matches"),
        (["gates", "--only", "transparency"], "runs nothing"),
        (["gates", "--seeds", "0:2"], "transparency takes no seeds"),
        (["gates", "--only", "chaos", "--json", "out.json"], "--json needs"),
        (["gates", "--case", "3", "--json", "out.json"], "--json needs"),
    ],
)
def test_fault_verbs_reject_bad_selections_with_exit_2(capsys, monkeypatch, argv, message):
    # With no failure point enumerated, the transparency gate alone runs
    # nothing.
    from repro.harness import gates

    monkeypatch.setattr(gates, "failure_points", lambda topo: {})
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert "runs:" not in captured.out
