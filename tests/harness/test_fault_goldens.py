"""The four fault gates' verdicts and output, pinned.

``fault_goldens.json`` was captured from the tree *before* the harnesses
were folded into one engine: chaos seeds 0:16 (up to 4 faults), integrity
soak seeds 0:12, all 85 transparency cases and the 12 named scenarios with
their transcript digests.  Outcomes use the single fault-experiment
vocabulary (``transparent | announced-degradation | violation:* |
skipped:*``); the capture translated the legacy chaos strings by the fixed
table ``exactly-once -> transparent``, ``degraded:global_rollback ->
announced-degradation``, ``violation -> violation:*``.  Each gate's
``golden`` projection in :data:`repro.harness.gates.GATES` says what is
pinned per case.

Each gate runs once per session, through ``repro gates`` at CI's
arguments, and that one run feeds the golden comparison, the stdout and
exit-code pins, the ``--json`` payload pins and ``event_pins.json``: per
case, the sha256 of the run's ``recovery_events`` and of its JSONL trace
export, read just before the run releases its cluster.

Regenerate (only when a protocol change legitimately moves a verdict) with
``PYTHONPATH=src python tests/harness/test_fault_goldens.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

GOLDENS = Path(__file__).with_name("fault_goldens.json")
EVENT_PINS = Path(__file__).with_name("event_pins.json")

#: Each gate's command line as CI runs it -> (exit code, sha256 of stdout,
#: sha256 of the ``--json`` payload or None).  The reporter's bytes are part
#: of the gates' contract: a CI log or a replay hint must read the same.
PINNED_OUTPUT = {
    "chaos": (
        ["gates", "--only", "chaos"],
        0, "1b2dd10414dc4af3aad0e5d96645867f6848e7a5577b168266cf3f195873f1d7", None,
    ),
    "integrity": (
        ["gates", "--only", "integrity"],
        0, "918c6b7a454923fa0d2c3b2b71a905ae027abe12bb045451c67c0c8829621874", None,
    ),
    "transparency": (
        ["gates", "--only", "transparency", "--json", "BENCH_transparency.json"],
        0,
        "28c71fdeacdd8f0ce6af316469124c64bec545f655a8ebef93d23136250804f6",
        "21959714b93d4a0dfb69d41cba3723398f84ec392ed1f29da4289a39f40a27cd",
    ),
    "scenarios": (
        ["gates", "--only", "scenarios", "--json", "BENCH_scenarios.json"],
        0,
        "57ad4c9fb822b0032a4a2ba9c79d78f33681628dc5aed58d0c595c7d2080cd83",
        "0ae5f18d548841c3fef4cd2744e1dbddb1486d94e895910fb0cd879cb094adfa",
    ),
}


def run_gates(workdir: Path) -> dict:
    """gate -> (exit code, stdout, payload bytes or None, graded results,
    per-case event digests) for one ``repro gates --only <gate>`` run each,
    from ``workdir``."""
    from repro.bench.golden import events_sha256
    from repro.chaos.experiment import Observation
    from repro.cli import main
    from repro.harness import gates
    from repro.trace.export import write_jsonl

    runs = {}
    seen = {}
    digests = []
    report = gates.report
    release = Observation.release

    def recording(name, results, *args):
        seen[name] = results
        return report(name, results, *args)

    def digesting(obs):
        trace = write_jsonl(workdir / "case.jsonl", obs.jm.trace).read_bytes()
        digests.append({
            "recovery_sha256": events_sha256(obs.recovery_events),
            "trace_sha256": hashlib.sha256(trace).hexdigest(),
        })
        release(obs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gates, "report", recording)
        patch.setattr(Observation, "release", digesting)
        patch.chdir(workdir)
        for gate, (argv, *_pins) in PINNED_OUTPUT.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            payload = (workdir / argv[-1]).read_bytes() if "--json" in argv else None
            results = seen.pop(gate)
            assert len(digests) == len(results), gate
            events = {r.label: d for r, d in zip(results, digests)}
            digests.clear()
            runs[gate] = (code, out.getvalue(), payload, results, events)
    return runs


def goldens(runs: dict) -> dict:
    from repro.harness.gates import GATES

    return {
        gate: {r.label: GATES[gate].golden(r) for r in results}
        for gate, (_code, _out, _payload, results, _events) in runs.items()
    }


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    return run_gates(tmp_path_factory.mktemp("gates"))


def test_fault_gate_verdicts_match_the_pinned_goldens(gate_runs):
    pinned = json.loads(GOLDENS.read_text())
    fresh = goldens(gate_runs)
    assert len(pinned["chaos"]) == 16
    assert len(pinned["integrity"]) == 12
    assert len(pinned["transparency"]) == 85
    assert len(pinned["scenarios"]) == 12
    assert set(fresh) == set(pinned)
    for gate in pinned:
        assert fresh[gate] == pinned[gate], gate


def test_fault_gate_stdout_and_payloads_match_the_pins(gate_runs):
    for gate, (_argv, code, stdout_sha, payload_sha) in PINNED_OUTPUT.items():
        ran_code, out, payload, _results, _events = gate_runs[gate]
        assert ran_code == code, gate
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, gate
        if payload_sha is not None:
            assert hashlib.sha256(payload).hexdigest() == payload_sha, gate


def test_gate_runs_release_every_simulated_cluster(gate_runs):
    # A gate keeps what its report prints, not every run's job manager.
    for gate, (_code, _out, _payload, results, _events) in gate_runs.items():
        for r in results:
            assert r.obs.jm is None and r.obs.engine is None, (gate, r.label)


def test_every_case_records_the_pinned_recovery_events_and_trace(gate_runs):
    pinned = json.loads(EVENT_PINS.read_text())
    assert set(pinned) == set(gate_runs)
    for gate, (*_run, events) in gate_runs.items():
        assert events == pinned[gate], gate


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        runs = run_gates(Path(workdir))
    GOLDENS.write_text(json.dumps(goldens(runs), indent=2, sort_keys=True) + "\n")
    events = {gate: run[-1] for gate, run in runs.items()}
    EVENT_PINS.write_text(json.dumps(events, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS} and {EVENT_PINS}")
