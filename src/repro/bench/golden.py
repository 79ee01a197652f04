"""Golden-digest determinism gate.

The perf work's hard constraint: optimisations may change how *fast* the
simulator runs, never *what* it computes.  This module pins one seeded
fig6-style failure workload — small enough to run in about a second, rich
enough to exercise sources, stateful operators, checkpoints, a kill, causal
deltas, and recovery — and records six digests per fault-tolerance mode:

* ``schedule_hash`` — the sanitizer's rolling hash over every popped kernel
  event ``(when, priority, type, name)``: the full event schedule.
* ``kernel_steps`` — total events popped across all environments.
* ``sink_sha256`` — SHA-256 over the reprs of the job's sink output values.
* ``trace_sha256`` — SHA-256 of the deterministic JSONL trace export.
* ``recovery_sha256`` — SHA-256 of the job's ``recovery_events`` view
  (:func:`events_sha256`).
* ``chrome_sha256`` — SHA-256 of the Chrome-trace document
  (:func:`repro.trace.export.chrome_trace`), ``json.dumps`` with sorted keys.

``check_goldens`` re-runs the workload and compares byte-for-byte.  If an
optimisation changes any digest it reordered, added, or dropped events —
that is a semantics change and CI fails.  Re-pinned once since the
pre-optimisation tree: the per-buffer event budget (DESIGN.md §7 addendum)
deleted zero-delay events on purpose; both ``trace_sha256`` survived it.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.sanitizer import combined_digest, traced_environments
from repro.config import FaultToleranceMode, JobConfig
from repro.external.http import ExternalService
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph
from repro.harness.experiment import run_experiment
from repro.harness.figures import experiment_config
from repro.trace.export import chrome_trace, write_jsonl
from repro.trace.timeline import timeline_of
from repro.workloads.synthetic import synthetic_chain


@dataclass(frozen=True)
class GoldenDigests:
    """The six byte-for-byte pins of one golden run."""

    schedule_hash: str
    kernel_steps: int
    sink_sha256: str
    trace_sha256: str
    recovery_sha256: str
    chrome_sha256: str


#: Recorded on the per-buffer-event-budget tree; every later perf change
#: must reproduce them exactly.
EXPECTED: Dict[str, GoldenDigests] = {
    "clonos": GoldenDigests(
        schedule_hash="ce178a99b6ecb0e4",
        kernel_steps=7687,
        sink_sha256=(
            "eb16742288492725ddafebb931e65f87eca25e54ab53986342c7c5837c38b0a4"
        ),
        trace_sha256=(
            "f41d57ee3e154a4dbba735a7fc621dc9407efc7cd4fb73201d9ea67c295fafb8"
        ),
        recovery_sha256=(
            "f7900f0a9467634faabe4732cd19d13020e486e86d5484b4da10d7ea3b16bfc5"
        ),
        chrome_sha256=(
            "6577fcd103da6e5aa9106c2a3f2e926aa2aa70ddbd01eefb6bac8e2bb43f2701"
        ),
    ),
    "flink": GoldenDigests(
        schedule_hash="dc4bfdb79e250291",
        kernel_steps=7169,
        sink_sha256=(
            "7c84426b2a8f864d8a89559728c45a5fbf5b1073c06959803bb33f93efac9cf4"
        ),
        trace_sha256=(
            "3caa4a51dcbaeec1ffcf8280abc030cf8fe9748d3d650d20b64881deaeb8cd39"
        ),
        recovery_sha256=(
            "367c14abcc9433c22f6c98f3246cd1cdba04a8df100024cd3ffd80ad39f04a3b"
        ),
        chrome_sha256=(
            "e9b2ae2373b76a3b842134baeda82cd198eb828dd08be25698589fb0bbeee560"
        ),
    ),
}

_MODES: Dict[str, FaultToleranceMode] = {
    "clonos": FaultToleranceMode.CLONOS,
    "flink": FaultToleranceMode.GLOBAL_ROLLBACK,
}


def _golden_config(mode: FaultToleranceMode) -> JobConfig:
    # Tight detection/deploy constants keep the kill-and-recover cycle well
    # inside the short run.
    return experiment_config(
        mode,
        None,
        checkpoint_interval=0.5,
        connection_failure_detection=0.05,
        standby_activation_time=0.05,
        task_deploy_time=0.5,
        heartbeat_interval=0.2,
        heartbeat_timeout=0.3,
    )


def _golden_graph(log: DurableLog, external: Optional[ExternalService]) -> JobGraph:
    return synthetic_chain(
        log,
        depth=3,
        parallelism=2,
        rate_per_partition=2000.0,
        total_per_partition=1500,
        state_bytes_per_task=8192,
        num_keys=16,
        nondeterministic=True,
        out_topic="out",
    )


def events_sha256(events: Iterable[Tuple[float, str, str]]) -> str:
    """SHA-256 over a ``recovery_events`` view, one entry's ``repr`` a line."""
    text = "\n".join(repr(tuple(event)) for event in events)
    return hashlib.sha256(text.encode()).hexdigest()


def run_golden(label: str) -> GoldenDigests:
    """Run the golden workload for one mode and return its digests."""
    config = _golden_config(_MODES[label])
    with traced_environments(keep_trace=False) as tracers:
        result = run_experiment(
            _golden_graph, config, kills=[(0.4, "stage1[0]")], limit=3600.0
        )
    sink = hashlib.sha256(
        "\n".join(repr(v) for v in result.output_values()).encode()
    ).hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_jsonl(Path(tmp) / "golden.jsonl", result.jm.trace)
        trace = hashlib.sha256(path.read_bytes()).hexdigest()
    return GoldenDigests(
        schedule_hash=combined_digest(tracers),
        kernel_steps=sum(t.steps for t in tracers),
        sink_sha256=sink,
        trace_sha256=trace,
        recovery_sha256=events_sha256(result.recovery_events),
        chrome_sha256=hashlib.sha256(json.dumps(
            chrome_trace(result.jm.trace, timeline_of(result)), sort_keys=True
        ).encode()).hexdigest(),
    )


def check_goldens() -> List[str]:
    """Run every golden mode; return human-readable mismatch descriptions
    (empty list = all digests byte-identical)."""
    failures: List[str] = []
    for label, expected in EXPECTED.items():
        actual = run_golden(label)
        if actual == expected:
            continue
        for field in fields(GoldenDigests):
            want = getattr(expected, field.name)
            got = getattr(actual, field.name)
            if want != got:
                failures.append(
                    f"{label}: {field.name} drifted: expected {want}, got {got}"
                )
    return failures
