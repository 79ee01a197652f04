"""Execute scenarios and grade their verdicts.

A scenario is one more schedule generator over the fault-experiment engine
(:mod:`repro.chaos.experiment`): its phases flatten to a fault plan, its
workload to the soak chain on a zoned cluster with spare nodes, and the
engine's verdict becomes the ``output`` check.  What rides along is
scenario-specific: the failure-free baseline's duration anchors the
overhead figure, a recovery-time budget, the watchdog's stall verdict, and a
deterministic transcript digest — the same scenario + seed reproduces the
same transcript byte for byte, so a failing scenario replays exactly under
``repro gates --only scenarios --case <name> --verbose``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.experiment import (
    FaultResult,
    baseline,
    SoakJob,
    fast_chaos_config,
    grade,
    run_experiment,
)
from repro.metrics.collectors import stall_summary
from repro.scenarios.model import Scenario


@dataclass
class ScenarioResult(FaultResult):
    """One scenario run, graded: the engine's verdict plus the per-check
    ledger (``completed``, ``output``, ``recovery``, ``watchdog``)."""

    checks: Dict[str, str]  # check name -> "ok" | "fail: <detail>"
    seed: int
    baseline_duration: float
    recovery_time: Optional[float]
    transcript_digest: str

    @property
    def name(self) -> str:
        return self.label

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    @property
    def ok(self) -> bool:
        return all(status == "ok" for status in self.checks.values())

    @property
    def duration_overhead(self) -> float:
        """Wall-clock (simulated) cost of the incident vs. failure-free."""
        if self.baseline_duration <= 0:
            return 0.0
        return self.obs.duration / self.baseline_duration

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "checks": dict(self.checks),
            "seed": self.seed,
            "duration_s": round(self.obs.duration, 6),
            "baseline_duration_s": round(self.baseline_duration, 6),
            "duration_overhead": round(self.duration_overhead, 4),
            "expected": self.expected,
            "delivered": self.delivered,
            "missing": self.missing,
            "duplicated": self.duplicated,
            "quarantined": len(self.obs.quarantined),
            "degradations": len(self.obs.degradations),
            "recovery_time_s": None
            if self.recovery_time is None
            else round(self.recovery_time, 6),
            "transcript_digest": self.transcript_digest,
            "chaos": dict(self.obs.chaos),
        }


def _transcript_digest(
    seed: int,
    recovery_events: Sequence[Tuple[float, str, str]],
    chaos_notes: Sequence,
    projection: Counter,
) -> str:
    """Byte-stable digest of everything observable about the run: the seed,
    the recovery-event timeline, the chaos engine's injection notes, and the
    output projection.  Same seed -> same transcript -> same digest."""
    h = hashlib.sha256()
    h.update(f"seed={seed}\n".encode())
    for t, kind, who in recovery_events:
        h.update(f"{t!r}|{kind}|{who}\n".encode())
    for note in chaos_notes:
        h.update(f"{note!r}\n".encode())
    for pair, count in sorted(projection.items()):
        h.update(f"{pair!r}={count}\n".encode())
    return h.hexdigest()


def _recovery_spans(
    recovery_events: Sequence[Tuple[float, str, str]], end_time: float
) -> List[Tuple[str, float]]:
    """(task, seconds) per detected failure, measured detected -> recovered.
    A detection never followed by recovery (the run ended degraded, or a
    global restart superseded it) spans to the next global restart if one
    follows, else to the end of the run."""
    pending: Dict[str, List[float]] = {}
    spans: List[Tuple[str, float]] = []
    restarts = [t for (t, kind, _w) in recovery_events if kind == "global-restart-begin"]
    for t, kind, who in recovery_events:
        if kind == "detected":
            pending.setdefault(who, []).append(t)
        elif kind == "recovered" and pending.get(who):
            spans.append((who, t - pending[who].pop(0)))
    for who, starts in pending.items():
        for start in starts:
            later = [t for t in restarts if t >= start]
            spans.append((who, (later[0] if later else end_time) - start))
    return spans


def run_scenario(scenario: Scenario, seed: Optional[int] = None) -> ScenarioResult:
    """Run one scenario and grade it against its verdict spec."""
    scenario.validate()
    run_seed = scenario.seed if seed is None else seed
    workload, spec = scenario.workload, scenario.verdict
    job = SoakJob(**{f.name: getattr(workload, f.name) for f in fields(workload)})
    reference = baseline(job, run_seed, scenario.checkpoint_interval)
    config = fast_chaos_config(
        seed=run_seed, checkpoint_interval=scenario.checkpoint_interval
    )
    obs = run_experiment(
        job, scenario.fault_plan(seed=run_seed), config, scenario.limit
    )
    result = grade(
        scenario.name, obs, strict=not spec.allow_announced_divergence
    )

    checks = {
        "completed": "ok" if obs.error is None else f"fail: {obs.error}",
        "output": "ok" if result.ok else f"fail: {result.outcome}: {result.detail}",
    }
    spans = _recovery_spans(obs.recovery_events, obs.duration)
    if spec.max_recovery_s is not None:
        who, worst = max(spans, key=lambda x: x[1], default=(None, 0.0))
        checks["recovery"] = (
            f"fail: {who} took {worst:.3f}s (budget {spec.max_recovery_s:g}s)"
            if worst > spec.max_recovery_s
            else "ok"
        )
    if spec.require_watchdog_ok:
        stall = stall_summary(obs.jm)
        checks["watchdog"] = (
            "ok"
            if stall["verdict"] == "ok"
            else f"fail: {stall['stalls_detected']} stalls detected"
        )
    failed = [f"{name}: {status}" for name, status in checks.items() if status != "ok"]
    digest = _transcript_digest(
        run_seed,
        obs.recovery_events,
        obs.engine.applied + obs.engine.skipped,
        obs.projection,
    )
    obs.release()
    return ScenarioResult(
        **{**vars(result), "detail": "; ".join(failed)},
        checks=checks,
        seed=run_seed,
        baseline_duration=reference.duration,
        recovery_time=max((s for _w, s in spans), default=None),
        transcript_digest=digest,
    )
