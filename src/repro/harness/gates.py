"""The four fault gates, each declared once, as :data:`FIGURES
<repro.harness.figures.FIGURES>` declares the figures.

Each :data:`GATES` entry, keyed as ``tests/harness/fault_goldens.json`` is,
holds its default cases (a stable label plus the one-case call that runs and
grades it), its report's title, columns and rows, its golden projection and,
for two gates, the ``--json`` payload CI uploads.  ``repro gates``, the
golden test, the benchmark probes and CI all :func:`select` from it.
:mod:`repro.harness` does not import this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.experiment import FaultResult
from repro.chaos.soak import run_chaos_experiment
from repro.errors import ReproError
from repro.harness.reporters import render_table
from repro.integrity.soak import run_integrity_experiment
from repro.metrics.collectors import recovery_summary, scenario_summary
from repro.scenarios import SCENARIOS, run_scenario
from repro.transparency.explorer import (
    default_topologies,
    failure_points,
    reports_of,
    run_case,
    suite_payload,
)

#: One case: its label and the call that runs and grades it.
Case = Tuple[str, Callable[[], FaultResult]]


class GateSelectionError(ReproError):
    """A gate selection that names something unknown or runs nothing."""


@dataclass(frozen=True)
class Gate:
    title: str
    columns: Tuple[str, ...]
    #: the cases, in report order, under a seed override (None: the gate's own)
    cases: Callable[[Optional[Sequence[int]]], List[Case]]
    #: the table rows for the graded cases
    rows: Callable[[List[FaultResult]], List[tuple]]
    #: what the goldens pin for one graded case
    golden: Callable[[FaultResult], object]
    #: the ``--json`` payload, for the gates CI uploads one of
    payload: Optional[Callable[[List[FaultResult]], dict]] = None
    #: False for a gate whose cases take no seed
    seeded: bool = True


def _outcome(raw: str) -> str:
    """Goldens pin an outcome class: every violation reads ``violation:*``."""
    return "violation:*" if raw.startswith("violation") else raw


GATES: Dict[str, Gate] = {
    "chaos": Gate(
        title="chaos soak: randomised fault plans vs the recovery protocol",
        columns=("seed", "verdict", "dur", "faults", "lost", "dup", "rpc drops"),
        cases=lambda seeds: [
            (str(seed), partial(run_chaos_experiment, seed, max_faults=4))
            for seed in (range(16) if seeds is None else seeds)
        ],
        rows=lambda results: [
            (r.label, r.outcome, f"{r.obs.duration:.2f}s",
             ",".join(r.obs.chaos["kinds"]) or "-", r.missing, r.duplicated,
             r.obs.chaos["control_plane_drops"])
            for r in results
        ],
        golden=lambda r: {
            "outcome": _outcome(r.outcome),
            "missing": r.missing,
            "duplicated": r.duplicated,
            "faults": list(r.obs.chaos["kinds"]),
        },
    ),
    "integrity": Gate(
        title="integrity soak: corruption fault plans vs the validation layer",
        columns=("seed", "verdict", "injected", "flagged in run", "flagged by audit"),
        cases=lambda seeds: [
            (str(seed), partial(run_integrity_experiment, seed))
            for seed in (range(12) if seeds is None else seeds)
        ],
        rows=lambda results: [
            (r.label, r.outcome, r.corruptions_injected,
             r.integrity_summary.get("total_failed", 0), len(r.audit.violations))
            for r in results
        ],
        golden=lambda r: {
            "outcome": _outcome(r.outcome),
            "injected": r.corruptions_injected,
            "flagged_in_run": r.integrity_summary.get("total_failed", 0),
            "flagged_by_audit": len(r.audit.violations),
        },
    ),
    "transparency": Gate(
        title="failure transparency: exhaustive failure-point exploration",
        columns=("topology", "ops", "tasks", "cases", "transparent",
                 "announced", "skipped", "violations"),
        cases=lambda _seeds: [
            (label, partial(run_case, topo, point))
            for topo in default_topologies()
            for label, point in failure_points(topo).items()
        ],
        rows=lambda results: [
            (r.topo.name, r.topo.operators, len(r.baseline.tasks), *r.tally().values())
            for r in reports_of(results)
        ],
        golden=lambda r: _outcome(r.outcome),
        payload=lambda results: suite_payload(reports_of(results)),
        seeded=False,
    ),
    "scenarios": Gate(
        title="scenario pack: named production incidents vs their verdicts",
        columns=("scenario", "verdict", "dur", "overhead", "lost", "dup",
                 "degr", "recovery", "failed checks"),
        cases=lambda seeds: [
            (scenario.name if seed is None else f"{scenario.name}/{seed}",
             partial(run_scenario, scenario, seed))
            for seed in ([None] if seeds is None else seeds)
            for scenario in SCENARIOS
        ],
        rows=lambda results: [
            (r.name, r.outcome, f"{r.obs.duration:.2f}s",
             f"{r.duration_overhead:.2f}x", r.missing, r.duplicated,
             len(r.obs.degradations),
             "-" if r.recovery_time is None else f"{r.recovery_time:.3f}s",
             ",".join(n for n, status in r.checks.items() if status != "ok") or "-")
            for r in results
        ],
        golden=lambda r: {
            "checks": dict(r.checks),
            "transcript_digest": r.transcript_digest,
        },
        payload=lambda results: {
            "summary": scenario_summary(results),
            "scenarios": [r.to_dict() for r in results],
        },
    ),
}


def select(
    names: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> Dict[str, List[Case]]:
    """The cases of ``names`` (default all) whose label equals a ``labels``
    entry or starts with ``entry/``; gates left without cases drop out.  Any
    name, seed or entry that selects nothing raises, and so does a selection
    that runs nothing: a gate that ran nothing is never green."""
    names = list(GATES) if names is None else names
    unknown = [name for name in names if name not in GATES]
    if unknown:
        raise GateSelectionError(
            f"unknown gates: {', '.join(unknown)} (known: {', '.join(GATES)})"
        )
    seedless = [name for name in names if not GATES[name].seeded]
    if seeds is not None and seedless:
        raise GateSelectionError(f"{', '.join(seedless)} takes no seeds")

    def keeps(entry: str, label: str) -> bool:
        return label == entry or label.startswith(entry + "/")

    selected = {}
    for name in names:
        cases = GATES[name].cases(seeds)
        if labels is not None:
            cases = [c for c in cases if any(keeps(e, c[0]) for e in labels)]
        if cases:
            selected[name] = cases
    unmatched = [
        entry for entry in labels or ()
        if not any(keeps(entry, c[0]) for cases in selected.values() for c in cases)
    ]
    if unmatched:
        raise GateSelectionError(f"no case matches: {', '.join(unmatched)}")
    if not selected:
        raise GateSelectionError("the selection runs nothing (0 runs)")
    return selected


def report(
    name: str,
    results: List[FaultResult],
    verbose: bool = False,
    json_path: Optional[str] = None,
) -> int:
    """The one reporter behind every gate: per-failure detail (every run
    with ``verbose``), the gate's table, the tally line over the shared
    verdict vocabulary, the optional JSON payload, and the exit code (1 on
    any violation or failed check, else 0)."""
    gate = GATES[name]
    for r in results:
        if verbose or not r.ok:
            print(
                f"--- {r.label}: {r.outcome} (lost={r.missing} "
                f"dup={r.duplicated} dur={r.obs.duration:.2f}s)"
            )
            if r.detail:
                print(f"    {r.detail}")
            for when, kind, who in r.obs.recovery_events:
                if not kind.startswith("suspected"):
                    print(f"    t={when:.4f} {kind} {who}")
            print("   ", recovery_summary(r.obs.recovery_events))
    print(gate.title)
    print(render_table(gate.columns, gate.rows(results)))
    outcomes = [r.outcome for r in results]
    failed = [r.label for r in results if not r.ok]
    print(
        f"\n{len(results)} runs: {outcomes.count('transparent')} transparent, "
        f"{outcomes.count('announced-degradation')} announced-degradation, "
        f"{sum(o.startswith('skipped') for o in outcomes)} skipped, "
        f"{len(failed)} violations"
        + (f" ({', '.join(failed)})" if failed else "")
    )
    if json_path:
        Path(json_path).write_text(
            json.dumps(gate.payload(results), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {json_path}")
    return 1 if failed else 0
