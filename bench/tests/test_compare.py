"""Verdicts of ``bench/compare.py``."""

import json

from bench import compare

DECLARED = {
    "host_records_per_cpu_s": {"better": "higher", "bound": 0.10},
    "setup_s": {"better": "lower", "bound": 0.25},
    "sim_latency_p99_ms": {"better": "lower", "bound": 0.05},
}


def _host(value, spread=0.0):
    return {"value": value, "unit": "1/s", "median": value,
            "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}


def test_host_metric_verdicts_follow_the_bound_and_direction():
    judge = lambda a, b: compare.judge("host_records_per_cpu_s", a, b, DECLARED)[2]
    assert judge(_host(1000), _host(950)) == "same"
    assert judge(_host(1000), _host(880)) == "worse"
    assert judge(_host(1000), _host(1150)) == "better"
    # 12% spread inside a run cannot resolve a 10% bound.
    assert judge(_host(1000, spread=0.12), _host(880)) == "unresolved"


def test_lower_is_better_metrics_flip_the_sign():
    worse_by, bound, verdict = compare.judge(
        "setup_s", {"value": 0.4, "unit": "s"}, {"value": 0.6, "unit": "s"}, DECLARED
    )
    assert (round(worse_by, 2), bound, verdict) == (0.5, 0.25, "worse")


def test_simulated_values_must_be_bit_identical():
    a = {"value": 103.885, "unit": "ms"}
    assert compare.judge("sim_latency_p99_ms", a, dict(a), DECLARED)[2] == "same"
    b = {"value": 103.885 + 1e-9, "unit": "ms"}
    assert compare.judge("sim_latency_p99_ms", a, b, DECLARED)[2] == "mismatch"


def test_layer_counts_compare_exactly_and_host_seconds_do_not():
    a = {"sim.core.steps": {"value": 100, "unit": "count"},
         "sim.core.dispatch_self_s": {"value": 0.5, "unit": "s"},
         "ft.recovery.phase_sim_s.catch-up": {"value": 0.07, "unit": "s"}}
    b = json.loads(json.dumps(a))
    b["sim.core.dispatch_self_s"]["value"] = 0.7
    assert compare.layer_mismatches(a, b) == []
    b["sim.core.steps"]["value"] = 101
    b["ft.recovery.phase_sim_s.catch-up"]["value"] = 0.08
    assert compare.layer_mismatches(a, b) == [
        "ft.recovery.phase_sim_s.catch-up", "sim.core.steps"]


def _report(rate, p99):
    return {"seed": 1, "workloads": {"chain_paced_clonos": {
        "failed_share": 0.0,
        "end_to_end": {"host_records_per_cpu_s": _host(rate),
                       "sim_latency_p99_ms": {"value": p99, "unit": "ms"}},
        "per_layer": {"sim.core.steps": {"value": 7, "unit": "count"}}}}}


def test_main_exits_nonzero_on_worse_or_mismatch(tmp_path, capsys):
    def run(a, b):
        for name, doc in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(doc))
        return compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")])

    assert run(_report(2000, 103.9), _report(1950, 103.9)) == 0
    assert run(_report(2000, 103.9), _report(1500, 103.9)) == 1
    assert run(_report(2000, 103.9), _report(2000, 104.0)) == 1
    assert "mismatch" in capsys.readouterr().out
    other_seed = _report(2000, 103.9)
    other_seed["seed"] = 2
    assert run(_report(2000, 103.9), other_seed) == 2
