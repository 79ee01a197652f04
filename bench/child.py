"""What runs inside one fresh, pinned child process: one workload, one pass.

``setup``  — imports and workload construction only (the parent times the
             whole process; several of these give ``setup_s`` its median).
``timed``  — an untimed warm-up repetition (fills the generator and sizer
             memo caches, and is the one whose output is verified), then
             timed repetitions of the identical job for ``seconds``.
``traced`` — an untraced warm-up repetition, then traced repetitions.
``micro``  — the layer micro-drivers of :mod:`bench.micro`.

The result goes to stdout as one JSON line.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def _pin(cpu: int) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def _warm_up(workload) -> Dict[str, Any]:
    """The first repetition: untimed for throughput, verified for output."""
    gc.collect()
    rep = workload.run(keep_output=True)
    verdict, verify_info = workload.check(rep)
    sim, info = workload.sim_metrics(rep)
    for arm in rep.arms:
        arm.sink_values = None
    return {
        "rep": rep,
        "fields": {
            "records_in": rep.records_in,
            "warmup_cpu_s": rep.cpu_s,
            "sim": {name: list(pair) for name, pair in sim.items()},
            "info": {**info, **verify_info},
            "verdict": dataclasses.asdict(verdict),
            "digests": {arm.label: arm.digest for arm in rep.arms},
        },
    }


def _timed(workload, seconds: float) -> Dict[str, Any]:
    warm = _warm_up(workload)
    signature = warm["rep"].signature()
    deadline = time.perf_counter() + seconds
    cpu_s: List[float] = []
    deterministic = True
    longest = 0.0
    # At least three repetitions, then as many as still fit before the deadline.
    while len(cpu_s) < 3 or time.perf_counter() + longest <= deadline:
        gc.collect()
        started = time.perf_counter()
        rep = workload.run()
        longest = max(longest, time.perf_counter() - started)
        cpu_s.append(rep.cpu_s)
        deterministic = deterministic and rep.signature() == signature
    return {**warm["fields"], "cpu_s": cpu_s, "deterministic": deterministic}


def _traced(workload, seconds: float, out_dir: str) -> Dict[str, Any]:
    from bench import tracing

    warm = _warm_up(workload)
    signature = warm["rep"].signature()
    overhead = tracing.calibrate()
    deadline = time.perf_counter() + seconds
    best = None
    counts = None
    deterministic = counts_repeat = True
    longest = 0.0
    while best is None or time.perf_counter() + longest <= deadline:
        gc.collect()
        recorder = tracing.Recorder()
        harvest = tracing.Harvest()
        started = time.perf_counter()
        with tracing.tracing(recorder):
            rep = workload.run(on_result=harvest.on_result)
        longest = max(longest, time.perf_counter() - started)
        recorder.finish(overhead)
        layers = tracing.layer_metrics(recorder, harvest, rep.records_in)
        deterministic = deterministic and rep.signature() == signature
        exact = {
            name: value for name, (value, unit) in layers.items()
            if not tracing.is_host_time(name, unit)
        }
        counts_repeat = counts_repeat and counts in (None, exact)
        counts = exact
        if best is None or rep.cpu_s < best["rep"].cpu_s:
            best = {"rep": rep, "recorder": recorder, "layers": layers}
    recorder = best["recorder"]
    traced_cpu_s = best["rep"].cpu_s
    net_s = traced_cpu_s - recorder.overhead_ns / 1e9
    shares = {
        layer: self_ns / 1e9 / net_s
        for layer, self_ns in sorted(recorder.layer_self_ns().items())
    }
    trace_file = Path(out_dir) / f"trace-{workload.name}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": workload.seed,
                "traced_cpu_s": traced_cpu_s,
                "wrapper_overhead_s": recorder.overhead_ns / 1e9,
                "calibration_ns": overhead._asdict(),
                "kernel_steps": recorder.steps,
                "counters": recorder.counters,
                "unresolved_seams": recorder.unresolved,
                "aggregates": [
                    {"name": n, "parent": p, "calls": c, "total_ns": t, "self_ns": s}
                    for n, p, c, t, s in recorder.aggregate_rows()
                ],
                "net_self_ns": recorder.net_self_ns,
                "spans": [
                    {"name": n, "parent": p, "start_ns": a, "end_ns": b}
                    for n, p, a, b in recorder.spans
                ],
            },
            indent=1,
            sort_keys=True,
        )
    )
    return {
        **warm["fields"],
        "layers": {name: list(pair) for name, pair in best["layers"].items()},
        "layer_shares": shares,
        "traced_cpu_s": traced_cpu_s,
        "traced_net_cpu_s": net_s,
        "trace_overhead_ratio": traced_cpu_s / warm["rep"].cpu_s,
        "deterministic": deterministic,
        "counts_repeat": counts_repeat,
        "unresolved_seams": recorder.unresolved,
        "trace_file": trace_file.name,
    }


def main(spec: Dict[str, Any]) -> int:
    _pin(spec["cpu"])
    if spec["mode"] == "micro":
        from bench import micro

        result: Dict[str, Any] = {"micro": micro.run_all()}
        micro.print_table(result["micro"])
    else:
        from bench import workloads

        workload = workloads.build(spec["workload"], spec["seed"], tiny=spec["tiny"])
        if spec["mode"] == "setup":
            result = {}
        elif spec["mode"] == "timed":
            result = _timed(workload, spec["seconds"])
        else:
            result = _traced(workload, spec["seconds"], spec["out"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
