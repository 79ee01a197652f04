"""Every workload at tiny parameters: the named metrics exist, carry the
declared units, and the outputs check out."""

import json

import pytest

from bench import run, tracing, workloads

CONTRACT = run.load_contract()
SCOPED = {
    "nexmark_saturated": {"sim_rel_throughput_dsd1", "sim_rel_throughput_full"},
    "chain_recovery": {"sim_recovery_time_s", "sim_recovery_speedup_vs_rollback"},
}


def test_contract_names_the_workloads_this_package_builds():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name):
    workload = workloads.build(name, seed=11, tiny=True)
    rep = workload.run(keep_output=True)
    verdict, _info = workload.check(rep)
    assert verdict.attempted > 0 and verdict.failed == 0

    sim, info = workload.sim_metrics(rep)
    universal = {m["name"] for m in CONTRACT["end_to_end"] if m["name"].startswith("sim_")}
    assert set(sim) == universal | SCOPED.get(name, set())
    assert all(value > 0 for value, _unit in sim.values())
    assert info["latency_samples"] > 0

    recorder, harvest = tracing.Recorder(), tracing.Harvest()
    with tracing.tracing(recorder):
        traced = workload.run(on_result=harvest.on_result)
    recorder.finish(tracing.calibrate())
    assert traced.signature() == rep.signature()
    layers = tracing.layer_metrics(recorder, harvest, traced.records_in)
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for metric, (_value, unit) in layers.items():
        assert declared[metric] == unit, metric
    assert set(layers) | SCOPED["nexmark_saturated"] | SCOPED["chain_recovery"] == set(declared)
    assert layers["sim.core.steps"][0] > 0
    recovering = name == "chain_recovery"
    assert (layers["core.inflight_log.replayed_buffers"][0] > 0) == recovering
    assert (layers["state.snapshot.loads"][0] > 0) == recovering
    if recovering:
        phases = sum(v for m, (v, _u) in layers.items() if m.startswith("ft.recovery.phase_sim_s."))
        assert phases == pytest.approx(sim["sim_recovery_time_s"][0], abs=1e-9)


def test_one_command_prints_the_driver_object(tmp_path, capsys):
    """The child-process path end to end, both passes, on one tiny workload."""
    entry = run.run_workload("chain_paced_clonos", seed=5, seconds=0.5, passes="both",
                             out_dir=tmp_path, tiny=True)
    assert entry["correct"] and entry["failed_share"] == 0.0
    assert entry["traced_matches_untraced"] and entry["counts_repeat"]
    assert (tmp_path / "trace-chain_paced_clonos.json").is_file()
    run.print_workload("chain_paced_clonos", entry, CONTRACT)
    printed = capsys.readouterr().out
    for metric in CONTRACT["end_to_end"]:
        assert metric["name"] in printed
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line = json.loads(run.contract_line(entry, trace, CONTRACT))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT[section]]
        for spec in CONTRACT[section]:
            assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
    untraced = json.loads(run.contract_line(entry, "0", CONTRACT))["metrics"]
    assert all(cell["value"] > 0 for cell in untraced.values())
