"""Passivity guarantee (DESIGN.md): observability must never perturb the sim.

The same seeded failure experiment runs with the event table as declared,
with every row of it untraced (the trace view then records nothing), and
with the profiler attached; the sink output, failure record, recovery view
and duration must be identical in every configuration.
"""

import dataclasses
import hashlib

from repro.trace import events, profiling

from tests.trace.conftest import tiny_failure_run


def _digest(result):
    material = repr(
        (
            result.output_values(),
            result.failures,
            result.recovery_events,
            result.duration,
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()


def test_untraced_table_leaves_the_run_byte_identical(monkeypatch):
    traced = tiny_failure_run()
    untraced_table = {
        kind: dataclasses.replace(spec, traced=False)
        for kind, spec in events.EVENT_KINDS.items()
    }
    monkeypatch.setattr(events, "EVENT_KINDS", untraced_table)
    untraced = tiny_failure_run()
    assert len(traced.jm.trace) > 0
    assert len(untraced.jm.trace) == 0
    assert _digest(traced) == _digest(untraced)


def test_profiler_leaves_sink_output_byte_identical():
    baseline = tiny_failure_run()
    with profiling() as profilers:
        profiled = tiny_failure_run()
    assert profilers and any(p.steps > 0 for p in profilers)
    assert _digest(baseline) == _digest(profiled)
