"""Recovery phase names are declared once, in ``trace.timeline.PHASE_ORDER``;
every emitter and the benchmark's per-phase metrics must use exactly those
names.  A phase emitted under any other name would silently fall out of the
timeline's ordering and the benchmark's breakdown.

Event kinds are declared once too, in ``trace.events.EVENT_KINDS``: every
kind an emitter passes the bus is a row, every row is emitted, and nothing
writes the recovery view behind the bus's back."""

import ast
import json
from pathlib import Path

import repro
from repro.analysis.causal.model import dotted_name
from repro.analysis.causal.phases import _phase_emission
from repro.trace.events import ANNOUNCED, EVENT_KINDS
from repro.trace.timeline import PHASE_ORDER

SRC = Path(repro.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Phases the timeline builder synthesises rather than any emitter.
SYNTHESISED = {"failure-detection", "catch-up"}


def _calls():
    """(file name, call node) for every call under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                yield path.name, node


def _emitted_kinds():
    """Every constant kind passed to the bus: ``<...>trace.emit(t, kind, ...)``
    or the replay manager's ``self._emit(kind, ...)``."""
    kinds = {}
    for where, node in _calls():
        name = dotted_name(node.func) or ""
        if name.endswith("trace.emit") and len(node.args) >= 2:
            kind = node.args[1]
        elif name.endswith("._emit") and node.args:
            kind = node.args[0]
        else:
            continue
        for const in ast.walk(kind):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                kinds.setdefault(const.value, f"{where}:{node.lineno}")
    return kinds


def _emitted_phase_names():
    """Every constant ``phase=`` of a phase event under ``src/repro``, plus
    the constant labels of supervised recovery steps (``_step`` emits its
    label as the phase)."""
    names = {}
    for where, node in _calls():
        labels = []
        if _phase_emission(node) is not None:
            labels = [kw.value for kw in node.keywords if kw.arg == "phase"]
        elif (dotted_name(node.func) or "").endswith("._step") and len(node.args) == 4:
            labels = [node.args[3]]
        for label in labels:
            for const in ast.walk(label):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    names.setdefault(const.value, f"{where}:{node.lineno}")
    return names


def test_every_emitted_phase_is_declared_and_every_declared_phase_emitted():
    emitted = _emitted_phase_names()
    undeclared = {name: where for name, where in emitted.items() if name not in PHASE_ORDER}
    assert not undeclared, f"phase names missing from PHASE_ORDER: {undeclared}"
    assert set(emitted) | SYNTHESISED == set(PHASE_ORDER)


def test_benchmark_phase_metrics_match_phase_order():
    prefix = "ft.recovery.phase_sim_s."
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    names = [m["name"][len(prefix):] for m in metrics if m["name"].startswith(prefix)]
    assert names == list(PHASE_ORDER)


def test_every_emitted_kind_is_declared_and_every_declared_kind_emitted():
    emitted = _emitted_kinds()
    undeclared = {k: where for k, where in emitted.items() if k not in EVENT_KINDS}
    assert not undeclared, f"kinds missing from EVENT_KINDS: {undeclared}"
    assert set(emitted) == set(EVENT_KINDS)


def test_only_the_bus_writes_the_recovery_view():
    appends = [
        f"{where}:{node.lineno}"
        for where, node in _calls()
        if (dotted_name(node.func) or "").endswith("recovery_events.append")
    ]
    assert not appends, f"recovery facts recorded around the bus: {appends}"


def test_the_announcing_kinds_are_the_verdicts_markers():
    assert ANNOUNCED == {
        "degraded:global_rollback",
        "degraded:recovery_stalled",
        "degraded:poison_quarantined",
        "orphan-fallback",
        "global-restart-begin",
        "replay-diverged",
    }
