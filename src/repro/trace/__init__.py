"""repro.trace — causal tracing, recovery-phase timelines, sim-aware profiling.

The paper evaluates recovery end-to-end (Section 7.4); its protocol is a
six-phase sequence (Section 6).  This package makes the phases visible:

* :mod:`repro.trace.events` — structured, sim-time-stamped event bus; every
  :class:`~repro.runtime.jobmanager.JobManager` carries one
  (:attr:`JobManager.trace`) and the instrumented layers append to it.
* :mod:`repro.trace.spans` — span tree modelling
  job → epoch → recovery-incident → protocol-phase.
* :mod:`repro.trace.timeline` — reconstructs per-incident phase breakdowns
  from raw events; phase durations sum to the end-to-end recovery time
  :func:`repro.metrics.collectors.recovery_time` reports.
* :mod:`repro.trace.export` — JSONL and Chrome-trace/Perfetto JSON exporters
  (deterministic for a fixed seed).
* :mod:`repro.trace.profiler` — wall-clock self-time per sim process/handler
  (opt-in, never visible to dataflow logic).

Tracing is **passive**: recording appends sim-time-stamped tuples to Python
lists and never schedules events, reads clocks visible to operators, or
perturbs RNG streams — enabling it leaves sink output byte-identical (see
``tests/trace/test_passivity.py``).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.trace.events import TraceEvent, TraceLog, tracing
    from repro.trace.export import (
        chrome_trace,
        events_to_jsonl,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.trace.profiler import SimProfiler, merge_profiles, profiling
    from repro.trace.spans import Span, build_span_tree
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
    **dict.fromkeys(("TraceEvent", "TraceLog", "tracing"), "events"),
    **dict.fromkeys(
        ("chrome_trace", "events_to_jsonl", "validate_chrome_trace",
         "write_chrome_trace", "write_jsonl"),
        "export",
    ),
    **dict.fromkeys(("SimProfiler", "merge_profiles", "profiling"), "profiler"),
    **dict.fromkeys(("Span", "build_span_tree"), "spans"),
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
    "tracing",
    "Span",
    "build_span_tree",
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
