"""Integrity soak: corruption fault plans vs. the validation layer.

A schedule generator over the fault-experiment engine
(:mod:`repro.chaos.experiment`): plans are drawn from the corruption palette
(:data:`~repro.chaos.plan.CORRUPTION_KINDS`) — silent blob corruption, torn
DFS writes, in-flight buffer bit-flips, truncated determinant replicas —
each paired by the plan generator with kills that force a recovery to
actually read the damaged artifact.

The property under test: **corruption is never silent**.  Every run must end
``transparent`` or ``announced-degradation`` (the validated fallback ladder
announced an older-epoch or source-replay restore), and the closing audit
sweep that rides along must flag whatever corrupted artifacts were never
read.  The control experiment (``validate=False``) demonstrates the layer is
load-bearing: the same plans then produce silent violations the verdict
catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.chaos.experiment import (
    FaultResult,
    SoakJob,
    fast_chaos_config,
    grade,
    run_experiment,
)
from repro.chaos.plan import CORRUPTION_KINDS
from repro.chaos.soak import random_faults
from repro.integrity.audit import AuditReport, audit_job

__all__ = ["IntegrityRunResult", "run_integrity_experiment", "integrity_soak"]


@dataclass
class IntegrityRunResult(FaultResult):
    """A graded corruption run plus its ride-along checks: the validation
    ledger and the closing full-sweep audit."""

    integrity_summary: Dict[str, object]
    audit: AuditReport = field(repr=False)

    @property
    def corruptions_injected(self) -> int:
        applied = self.obs.engine.applied
        return sum(1 for (_t, kind, _x) in applied if kind in CORRUPTION_KINDS)

    @property
    def detected(self) -> int:
        """Corruptions caught: failed validations during the run plus
        residual damage the closing audit swept up."""
        return int(self.integrity_summary.get("total_failed", 0)) + len(
            self.audit.violations
        )


def run_integrity_experiment(
    seed: int,
    validate: bool = True,
    max_faults: int = 2,
    n_records: int = 1200,
    limit: float = 120.0,
) -> IntegrityRunResult:
    """One corruption-chaos run.  ``validate=False`` is the control arm:
    checksums still exist but nothing checks them, so injected corruption
    flows into restores silently — the verdict then shows the violation the
    validation layer exists to prevent."""
    # Quicker checkpoints and a slower source than the generic chaos soak:
    # corruption needs stored artifacts to damage and a run still in
    # progress when the paired kill forces the validated restore.
    config = fast_chaos_config(seed=seed, checkpoint_interval=0.25)
    config.integrity.validate = validate
    job = SoakJob(n_records=n_records, rate=1000.0)
    faults = random_faults(
        seed, n_records / job.rate + 0.5, max_faults, kinds=sorted(CORRUPTION_KINDS)
    )
    result = grade(seed, run_experiment(job, faults, config, limit))
    jm = result.obs.jm
    return IntegrityRunResult(
        **vars(result),
        integrity_summary=jm.integrity.summary(),
        audit=audit_job(jm),
    )


def integrity_soak(
    seeds: Iterable[int], n_records: int = 1200
) -> List[IntegrityRunResult]:
    """One corruption experiment per seed (each seed fully determines the
    plan and the job, so any failure replays under the same seed)."""
    return [run_integrity_experiment(seed, n_records=n_records) for seed in seeds]
