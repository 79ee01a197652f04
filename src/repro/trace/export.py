"""Exporters: JSONL event streams and Chrome-trace/Perfetto JSON.

Both exporters are **deterministic for a fixed seed**: they serialise only
sim-time values (never wall clocks), walk pre-sorted structures, and emit
JSON with ``sort_keys=True`` and fixed separators, so two same-seed runs
produce byte-identical files (asserted by the ``trace-smoke`` CI job).

The Chrome-trace document follows the Trace Event Format: complete spans
(``"ph": "X"``), instant events (``"ph": "i"``) for faults/detections/
violations, and metadata records (``"ph": "M"``) naming the process and
per-task threads.  Sim seconds map to microsecond timestamps
(``ts = time * 1e6``), the unit the format expects, so a
Perfetto/``chrome://tracing`` load shows real sim time.

The spans are derived *post hoc* from the trace and its
:class:`~repro.trace.timeline.JobTimeline` (nothing in the sim holds a span
open, so a run that dies mid-recovery still exports the part that ran), in
this order:

* the **job** span covers ``[0, end]``, ``end`` being the run's duration or
  its last event or incident end, whichever is latest;
* **epoch** spans tile the job span between consecutive
  ``checkpoint-complete`` boundaries;
* **checkpoint** spans cover trigger → completion/abort of each cut;
* **incident** spans cover ``[failure_time, end_time]`` of each
  :class:`~repro.trace.timeline.RecoveryIncident`, each followed by one span
  per protocol :class:`~repro.trace.timeline.Phase`, on the victim's thread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.trace.events import EVENT_KINDS, TraceEvent, TraceLog
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


def _complete(
    name: str,
    category: str,
    start: float,
    end: float,
    tid: int = _JOB_TID,
    args: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "ph": "X",
        "pid": _PID,
        "tid": tid,
        "name": name,
        "cat": category,
        "ts": _us(start),
        "dur": max(0.0, _us(end) - _us(start)),
    }
    if args:
        record["args"] = args
    return record


def _span_events(
    trace: TraceLog, timeline: JobTimeline, tids: Dict[str, int], job_name: str
) -> List[Dict[str, Any]]:
    end = timeline.duration if timeline.duration is not None else 0.0
    for event in trace:
        end = max(end, event.time)
    for incident in timeline.incidents:
        end = max(end, incident.end_time)
    records = [_complete(job_name, "job", 0.0, end)]

    boundaries = [0.0]
    for checkpoint in timeline.checkpoints:
        if checkpoint.status == "complete" and checkpoint.completed is not None:
            boundaries.append(checkpoint.completed)
    boundaries.append(end)
    epochs = [(left, right) for left, right in zip(boundaries, boundaries[1:])
              if right > left]
    for epoch, (left, right) in enumerate(epochs):
        records.append(
            _complete(f"epoch {epoch}", "epoch", left, right, args={"epoch": epoch})
        )

    for checkpoint in timeline.checkpoints:
        records.append(_complete(
            f"checkpoint {checkpoint.checkpoint_id}",
            "checkpoint",
            checkpoint.triggered,
            end if checkpoint.completed is None else checkpoint.completed,
            args={
                "checkpoint_id": checkpoint.checkpoint_id,
                "status": checkpoint.status,
            },
        ))

    for incident in timeline.incidents:
        tid = tids.get(incident.victim, _JOB_TID)
        records.append(_complete(
            f"recover {incident.victim}",
            "recovery-incident",
            incident.failure_time,
            incident.end_time,
            tid,
            {
                "incident": incident.index,
                "victim": incident.victim,
                "end_source": incident.end_source,
                "retries": incident.retries,
                "degraded": incident.degraded,
            },
        ))
        for phase in incident.phases:
            records.append(_complete(
                phase.name, "recovery-phase", phase.start, phase.end, tid,
                {"incident": incident.index, "victim": incident.victim},
            ))
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
    events.extend(_span_events(trace, timeline, tids, job_name))
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
