"""Exporters: JSONL event streams and Chrome-trace/Perfetto JSON.

Both exporters are **deterministic for a fixed seed**: they serialise only
sim-time values (never wall clocks), walk pre-sorted structures, and emit
JSON with ``sort_keys=True`` and fixed separators, so two same-seed runs
produce byte-identical files (asserted by the ``trace-smoke`` CI job).

The Chrome-trace document follows the Trace Event Format: complete spans
(``"ph": "X"``) for job/epoch/checkpoint/incident/phase spans, instant
events (``"ph": "i"``) for faults/detections/violations, and metadata
records (``"ph": "M"``) naming the process and per-task threads.  Sim
seconds map to microsecond timestamps (``ts = time * 1e6``), the unit the
format expects, so a Perfetto/``chrome://tracing`` load shows real sim time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.trace.events import EVENT_KINDS, TraceEvent, TraceLog
from repro.trace.spans import Span, build_span_tree
from repro.trace.timeline import JobTimeline

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}

_PID = 1
_JOB_TID = 0


def events_to_jsonl(events: Sequence[TraceEvent]) -> str:
    """Serialise raw events, one JSON object per line."""

    lines = [json.dumps(event.to_dict(), **_JSON_KW) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(path: Union[str, Path], trace: TraceLog) -> Path:
    path = Path(path)
    path.write_text(events_to_jsonl(list(trace)), encoding="utf-8")
    return path


def _us(time: float) -> float:
    # Round to whole nanoseconds to keep the JSON textual form stable.
    return round(time * 1_000_000.0, 3)


def _tid_map(trace: TraceLog, timeline: JobTimeline) -> Dict[str, int]:
    subjects = set()
    for event in trace:
        if event.subject and event.subject != "*":
            subjects.add(event.subject)
    for incident in timeline.incidents:
        subjects.add(incident.victim)
    return {name: tid for tid, name in enumerate(sorted(subjects), start=_JOB_TID + 1)}


def _span_events(root: Span, tids: Dict[str, int]) -> List[Dict[str, Any]]:
    records = []
    for span in root.walk():
        subject = span.args.get("victim", "")
        tid = tids.get(subject, _JOB_TID)
        record: Dict[str, Any] = {
            "ph": "X",
            "pid": _PID,
            "tid": tid,
            "name": span.name,
            "cat": span.category,
            "ts": _us(span.start),
            "dur": max(0.0, _us(span.end) - _us(span.start)),
        }
        if span.args:
            record["args"] = dict(span.args)
        records.append(record)
    return records


def _instant_events(trace: TraceLog, tids: Dict[str, int]) -> List[Dict[str, Any]]:
    records = []
    for event in trace:
        if not EVENT_KINDS[event.kind].instant:
            continue
        records.append(
            {
                "ph": "i",
                "s": "g" if event.subject in ("", "*") else "t",
                "pid": _PID,
                "tid": tids.get(event.subject, _JOB_TID),
                "name": event.kind,
                "cat": "trace-event",
                "ts": _us(event.time),
                "args": dict(event.args) or {"subject": event.subject},
            }
        )
    return records


def chrome_trace(
    trace: TraceLog,
    timeline: JobTimeline,
    job_name: str = "job",
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the Chrome-trace/Perfetto document for one run."""

    root = build_span_tree(trace, timeline, job_name=job_name)
    tids = _tid_map(trace, timeline)

    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _PID,
            "tid": _JOB_TID,
            "name": "process_name",
            "args": {"name": job_name},
        },
        {
            "ph": "M",
            "pid": _PID,
            "tid": _JOB_TID,
            "name": "thread_name",
            "args": {"name": "job"},
        },
    ]
    for subject, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": subject},
            }
        )
    events.extend(_span_events(root, tids))
    events.extend(_instant_events(trace, tids))

    other: Dict[str, Any] = {"generator": "repro.trace", "time_unit": "sim-seconds"}
    if extra_metadata:
        other.update(extra_metadata)
    return {
        "displayTimeUnit": "ms",
        "otherData": other,
        "traceEvents": events,
    }


def write_chrome_trace(path: Union[str, Path], document: Dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(document, **_JSON_KW) + "\n", encoding="utf-8")
    return path


def validate_chrome_trace(document: Any) -> List[str]:
    """Schema-check a Chrome-trace document; returns a list of problems.

    An empty list means the document is structurally valid: required keys
    per phase type, non-negative durations, numeric timestamps, and complete
    pid/tid/name metadata.
    """

    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(
            event.get("tid"), int
        ):
            problems.append(f"{where}: pid/tid must be integers")
        if ph in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
            if not isinstance(event.get("cat"), str):
                problems.append(f"{where}: X events need a cat")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}: instant scope must be g/p/t")
        if ph == "M" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: metadata events need args")
    return problems
