"""The four fault gates' verdicts, pinned.

``fault_goldens.json`` was captured from the tree *before* the harnesses
were folded into one engine: chaos seeds 0:16 (``--max-faults 4``), integrity
soak seeds 0:12, all 85 transparency cases and the 12 named scenarios with
their transcript digests.  Outcomes use the single fault-experiment
vocabulary (``transparent | announced-degradation | violation:* |
skipped:*``); the capture translated the legacy chaos strings by the fixed
table ``exactly-once -> transparent``, ``degraded:global_rollback ->
announced-degradation``, ``violation -> violation:*``.

Regenerate (only when a protocol change legitimately moves a verdict) with
``PYTHONPATH=src python tests/harness/test_fault_goldens.py``.
"""

import json
from pathlib import Path

GOLDENS = Path(__file__).with_name("fault_goldens.json")


def _outcome(raw: str) -> str:
    return "violation:*" if raw.startswith("violation") else raw


def current() -> dict:
    from repro.chaos import chaos_soak
    from repro.integrity.soak import integrity_soak
    from repro.scenarios import SCENARIOS, run_pack
    from repro.transparency import run_transparency_suite

    return {
        "chaos": {
            r.label: {
                "outcome": _outcome(r.outcome),
                "missing": r.missing,
                "duplicated": r.duplicated,
                "faults": list(r.obs.engine.summary()["kinds"]),
            }
            for r in chaos_soak(range(16), max_faults=4)
        },
        "integrity": {
            r.label: {
                "outcome": _outcome(r.outcome),
                "injected": r.corruptions_injected,
                "flagged_in_run": r.integrity_summary.get("total_failed", 0),
                "flagged_by_audit": len(r.audit.violations),
            }
            for r in integrity_soak(range(12))
        },
        "transparency": {
            case.label: _outcome(case.outcome)
            for report in run_transparency_suite()
            for case in report.cases
        },
        "scenarios": {
            r.name: {
                "checks": dict(r.checks),
                "transcript_digest": r.transcript_digest,
            }
            for r in run_pack(SCENARIOS)
        },
    }


def test_fault_gate_verdicts_match_the_pinned_goldens():
    pinned = json.loads(GOLDENS.read_text())
    fresh = current()
    assert len(pinned["chaos"]) == 16
    assert len(pinned["integrity"]) == 12
    assert len(pinned["transparency"]) == 85
    assert len(pinned["scenarios"]) == 12
    for gate in pinned:
        assert fresh[gate] == pinned[gate], gate


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(current(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
