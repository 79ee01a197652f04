"""ROADMAP item 1's exit test: a slowdown planted in one layer turns up in
that layer's figure, on the workload that exercises it, and nowhere else."""

import time

from bench import tracing, workloads
from repro.core.causal_log import CausalLogManager


def _traced(workload):
    recorder, harvest = tracing.Recorder(), tracing.Harvest()
    overhead = tracing.calibrate()
    with tracing.tracing(recorder):
        rep = workload.run(on_result=harvest.on_result)
    recorder.finish(overhead)
    layers = tracing.layer_metrics(recorder, harvest, rep.records_in)
    return rep, {name: value for name, (value, _unit) in layers.items()}


def _plant(monkeypatch, seconds_per_call):
    original = CausalLogManager.delta_for_dispatch

    def slow_delta(self, channel_index):
        deadline = time.perf_counter() + seconds_per_call
        while time.perf_counter() < deadline:
            pass
        return original(self, channel_index)

    monkeypatch.setattr(CausalLogManager, "delta_for_dispatch", slow_delta)


def test_planted_delta_slowdown_is_localised(monkeypatch):
    clonos = workloads.build("chain_paced_clonos", seed=2, tiny=True)
    rollback = workloads.build("chain_paced_rollback", seed=2, tiny=True)
    _traced(clonos)  # warm caches so before/after differ only by the plant
    base_rep, base = _traced(clonos)
    rollback_rep, rollback_base = _traced(rollback)

    planted_s = 0.5 * base_rep.cpu_s  # the issue asks for >= 20% of the repetition
    with monkeypatch.context() as patch:
        _plant(patch, planted_s / base["core.causal_log.delta_calls"])
        slow_rep, slow = _traced(clonos)
        rollback_slow_rep, rollback_slow = _traced(rollback)
    assert CausalLogManager.delta_for_dispatch.__name__ == "delta_for_dispatch"

    # The end-to-end figure moved by the planted amount ...
    assert slow_rep.cpu_s - base_rep.cpu_s > 0.2 * base_rep.cpu_s
    # ... the report puts it in core.causal_log.delta_busy_s ...
    grew = {name: slow[name] - base[name] for name in base if name.endswith("_s")}
    assert grew["core.causal_log.delta_busy_s"] > 0.7 * planted_s
    # ... and in no other layer.
    others = {n: g for n, g in grew.items() if n != "core.causal_log.delta_busy_s"}
    worst = max(others, key=others.get)
    assert others[worst] < 0.3 * planted_s, (worst, others[worst])

    # The rollback workload never asks for a delta: nothing shows there.
    for layers in (rollback_base, rollback_slow):
        assert layers["core.causal_log.delta_calls"] == 0
        assert layers["core.causal_log.delta_busy_s"] == 0.0
    assert rollback_slow_rep.cpu_s - rollback_rep.cpu_s < 0.5 * planted_s
    assert slow_rep.signature() == base_rep.signature()
