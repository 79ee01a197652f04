"""repro.trace — causal tracing, recovery-phase timelines, sim-aware profiling.

The paper evaluates recovery end-to-end (Section 7.4); its protocol is a
six-phase sequence (Section 6).  This package makes the phases visible:

* :mod:`repro.trace.events` — the structured, sim-time-stamped event bus,
  always on; every :class:`~repro.runtime.jobmanager.JobManager` carries one
  (:attr:`JobManager.trace`), the instrumented layers emit to it, and its
  :data:`~repro.trace.events.EVENT_KINDS` table declares what the trace view
  and the recovery view record of each kind.
* :mod:`repro.trace.timeline` — reconstructs per-incident phase breakdowns
  from raw events; phase durations sum to the end-to-end recovery time
  :func:`repro.metrics.collectors.recovery_time` reports.
* :mod:`repro.trace.export` — JSONL and Chrome-trace/Perfetto JSON exporters
  (deterministic for a fixed seed); the Chrome document's spans nest
  job → epoch → recovery-incident → protocol-phase.
* :mod:`repro.trace.profiler` — wall-clock self-time per sim process/handler
  (opt-in, never visible to dataflow logic).

The bus is **passive**: recording appends sim-time-stamped tuples to Python
lists and never schedules events, reads clocks visible to operators, or
perturbs RNG streams.  ``tests/trace/test_passivity.py`` runs the same
experiment with every row of the table untraced and asserts byte-identical
sink output, failures and recovery view.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.trace.events import TraceEvent, TraceLog
    from repro.trace.export import (
        chrome_trace,
        events_to_jsonl,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.trace.profiler import SimProfiler, merge_profiles, profiling
    from repro.trace.timeline import (
        JobTimeline,
        Phase,
        RecoveryIncident,
        breakdown_extra_info,
        build_timeline,
        timeline_of,
    )

#: Re-exported name -> defining submodule.  Loaded on first access (PEP 562),
#: so the runtime's import of :mod:`repro.trace.events` does not pull in the
#: exporters, profiler and timeline tooling.
_EXPORTS = {
    **dict.fromkeys(("TraceEvent", "TraceLog"), "events"),
    **dict.fromkeys(
        ("chrome_trace", "events_to_jsonl", "validate_chrome_trace",
         "write_chrome_trace", "write_jsonl"),
        "export",
    ),
    **dict.fromkeys(("SimProfiler", "merge_profiles", "profiling"), "profiler"),
    **dict.fromkeys(
        ("JobTimeline", "Phase", "RecoveryIncident", "breakdown_extra_info",
         "build_timeline", "timeline_of"),
        "timeline",
    ),
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "TraceEvent",
    "TraceLog",
    "JobTimeline",
    "Phase",
    "RecoveryIncident",
    "build_timeline",
    "timeline_of",
    "breakdown_extra_info",
    "chrome_trace",
    "events_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "SimProfiler",
    "merge_profiles",
    "profiling",
]
