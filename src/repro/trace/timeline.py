"""Reconstruct per-incident recovery-phase timelines from raw trace events.

The paper reports recovery only end-to-end ("from the failure instant until
latency returns to within 10% of pre-failure", Section 7.4).  This module
decomposes that scalar into the protocol phases of Section 6.  For every
``failure-injected`` event it builds a :class:`RecoveryIncident` whose
:class:`Phase` list is a **contiguous partition** of
``[failure_time, end_time]`` — so phase durations sum to the end-to-end
recovery time by construction, and when the incident's ``end_source`` is
``"latency-envelope"`` that end-to-end time is exactly the value
:func:`repro.metrics.collectors.recovery_time` reports.

Phase taxonomy (paper protocol steps in parentheses):

1.  ``failure-detection``      — kill instant → failure detector fires
2.  ``standby-activation``     — (step 1, fast path) hot standby promotion
    / ``checkpoint-restore``   — (step 1, slow path) redeploy + DFS restore
3.  ``network-reconfigure``    — (step 2) channel rewiring; instantaneous in
    the sim, kept as a named zero-width phase
4.  ``determinant-fetch``      — (step 3) collect logged determinants from
    downstream causal logs
5.  ``inflight-replay``        — (step 4) replay logged in-flight records
    under order determinants
6.  ``nondeterminism-replay``  — (step 5) first replayed nondeterministic
    value onward (absent for deterministic UDFs)
7.  ``dedup-flush``            — (step 6) downstream dedup horizon flush
8.  ``catch-up``               — recovered instant → latency back inside the
    10% envelope

Global-rollback (flink-mode) incidents use ``task-cancellation`` /
``checkpoint-restore`` / ``task-restart`` marks between detection and
catch-up instead of steps 1–6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.events import TraceEvent, TraceLog

#: Canonical display/sort order for protocol phases.
PHASE_ORDER: Tuple[str, ...] = (
    "failure-detection",
    "standby-activation",
    "checkpoint-restore",
    "network-reconfigure",
    "determinant-fetch",
    "inflight-replay",
    "nondeterminism-replay",
    "dedup-flush",
    "task-cancellation",
    "task-restart",
    "catch-up",
)


def _phase_rank(name: str) -> int:
    try:
        return PHASE_ORDER.index(name)
    except ValueError:
        return len(PHASE_ORDER)


@dataclass(frozen=True)
class Phase:
    """One contiguous segment of a recovery incident."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CheckpointSpan:
    """Lifetime of one epoch cut: trigger → completion (or abort)."""

    checkpoint_id: int
    triggered: float
    completed: Optional[float]
    status: str  # "complete" | "aborted" | "pending"


@dataclass
class RecoveryIncident:
    """One failure → recovery episode, decomposed into named phases."""

    index: int
    victim: str
    failure_time: float
    detected_time: Optional[float]
    recovered_time: Optional[float]
    end_time: float
    #: "latency-envelope" when the end comes from metrics.collectors
    #: recovery_time; "recovered-event" when the latency signal is absent,
    #: degenerate, or earlier than the recovered event; "incomplete" when the
    #: run ended mid-recovery.
    end_source: str
    phases: List[Phase] = field(default_factory=list)
    retries: int = 0
    degraded: bool = False

    @property
    def end_to_end(self) -> float:
        return self.end_time - self.failure_time

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for phase in self.phases:
            totals[phase.name] = totals.get(phase.name, 0.0) + phase.duration
        return dict(
            sorted(totals.items(), key=lambda item: (_phase_rank(item[0]), item[0]))
        )

    def phase_sum(self) -> float:
        return sum(phase.duration for phase in self.phases)

    def named_phase_count(self) -> int:
        return len({phase.name for phase in self.phases})


@dataclass
class JobTimeline:
    """Full run reconstruction: epochs, checkpoints, recovery incidents."""

    duration: Optional[float]
    checkpoints: List[CheckpointSpan] = field(default_factory=list)
    incidents: List[RecoveryIncident] = field(default_factory=list)


def _checkpoint_spans(events: Sequence[TraceEvent]) -> List[CheckpointSpan]:
    triggered: Dict[int, float] = {}
    spans: List[CheckpointSpan] = []
    for event in events:
        cid = event.arg("checkpoint_id")
        if event.kind == "checkpoint-triggered" and cid is not None:
            triggered[cid] = event.time
        elif event.kind == "checkpoint-complete" and cid is not None:
            spans.append(
                CheckpointSpan(cid, triggered.pop(cid, event.time), event.time, "complete")
            )
        elif event.kind == "checkpoint-aborted" and cid is not None:
            spans.append(
                CheckpointSpan(cid, triggered.pop(cid, event.time), event.time, "aborted")
            )
    for cid, start in sorted(triggered.items()):
        spans.append(CheckpointSpan(cid, start, None, "pending"))
    spans.sort(key=lambda span: (span.triggered, span.checkpoint_id))
    return spans


def _first(
    events: Sequence[TraceEvent],
    kind: str,
    subjects: Tuple[str, ...],
    start: float,
    limit: float,
) -> Optional[TraceEvent]:
    for event in events:
        if (
            event.kind == kind
            and event.subject in subjects
            and start <= event.time < limit
        ):
            return event
    return None


def _build_incident(
    index: int,
    fail: TraceEvent,
    events: Sequence[TraceEvent],
    limit: float,
    recovery_end: Optional[float],
) -> RecoveryIncident:
    victim = fail.subject
    t_fail = fail.time

    detected = _first(events, "failure-detected", (victim,), t_fail, limit)
    recovered = _first(events, "task-recovered", (victim,), t_fail, limit)
    if recovered is None:
        # Global rollback never emits per-task recovered events; the barrier
        # restart completing is the victim's recovery instant.
        recovered = _first(events, "global-restart-done", ("*",), t_fail, limit)

    retries = sum(
        1
        for event in events
        if event.kind in ("recovery-retry", "orphan-fallback")
        and event.subject == victim
        and t_fail <= event.time < limit
    )
    degraded = (
        _first(events, "degraded", (victim, "*"), t_fail, limit) is not None
    )

    # Phase boundaries: the kill instant opens failure-detection; every
    # phase-begin/phase-mark for the victim (or job-wide "*") opens the next
    # segment.  Escalation retries naturally re-open earlier phases.
    markers: List[Tuple[float, int, str]] = [(t_fail, -1, "failure-detection")]
    recovered_time = recovered.time if recovered is not None else None
    marker_limit = recovered_time if recovered_time is not None else limit
    for position, event in enumerate(events):
        if event.kind not in ("phase-begin", "phase-mark"):
            continue
        if event.subject not in (victim, "*"):
            continue
        if not (t_fail <= event.time <= marker_limit):
            continue
        phase = event.arg("phase")
        if phase:
            markers.append((event.time, position, str(phase)))
    markers.sort(key=lambda item: (item[0], item[1]))

    if recovered_time is None:
        end_time = markers[-1][0]
        end_source = "incomplete"
    elif (
        recovery_end is not None
        and math.isfinite(recovery_end)
        and recovery_end >= recovered_time
        and recovery_end < limit
    ):
        end_time = recovery_end
        end_source = "latency-envelope"
    else:
        end_time = recovered_time
        end_source = "recovered-event"

    replay_end = recovered_time if recovered_time is not None else end_time
    phases: List[Phase] = []
    for pos, (start, _seq, name) in enumerate(markers):
        seg_end = markers[pos + 1][0] if pos + 1 < len(markers) else replay_end
        seg_start = min(start, replay_end)
        seg_end = min(max(seg_end, seg_start), replay_end)
        phases.append(Phase(name, seg_start, seg_end))
    if recovered_time is not None:
        phases.append(Phase("catch-up", min(recovered_time, end_time), end_time))

    return RecoveryIncident(
        index=index,
        victim=victim,
        failure_time=t_fail,
        detected_time=detected.time if detected is not None else None,
        recovered_time=recovered_time,
        end_time=end_time,
        end_source=end_source,
        phases=phases,
        retries=retries,
        degraded=degraded,
    )


def build_timeline(
    trace: TraceLog,
    latencies: Optional[Sequence[Any]] = None,
    duration: Optional[float] = None,
) -> JobTimeline:
    """Turn a raw :class:`TraceLog` into a structured :class:`JobTimeline`.

    ``latencies`` are the sink :class:`~repro.metrics.collectors.LatencyPoint`
    samples; when present, each incident's end is the last sample above the
    10% envelope (exactly what ``metrics.collectors.recovery_time`` reports),
    falling back to the recovered event when the latency signal is missing,
    zero, or earlier than the recovered instant.
    """

    events = list(trace)
    timeline = JobTimeline(duration=duration, checkpoints=_checkpoint_spans(events))

    fails = [event for event in events if event.kind == "failure-injected"]
    for index, fail in enumerate(fails):
        limit = math.inf
        for later in fails[index + 1 :]:
            if later.subject == fail.subject and later.time > fail.time:
                limit = later.time
                break

        recovery_end: Optional[float] = None
        if latencies:
            from repro.metrics.collectors import recovery_time

            measured = recovery_time(latencies, fail.time)
            if measured is not None and measured > 0.0:
                recovery_end = fail.time + measured

        timeline.incidents.append(
            _build_incident(index, fail, events, limit, recovery_end)
        )
    return timeline


def timeline_of(result: Any) -> JobTimeline:
    """Convenience: build the timeline for a harness ``ExperimentResult``."""

    try:
        latencies = result.latencies
    except Exception:
        latencies = None
    return build_timeline(
        result.jm.trace, latencies=latencies, duration=result.duration
    )


def breakdown_extra_info(result: Any, round_to: int = 6) -> Dict[str, Any]:
    """Flat, JSON-serialisable per-phase stats for benchmark ``extra_info``."""

    timeline = timeline_of(result)
    totals: Dict[str, float] = {}
    end_to_end = 0.0
    retries = 0
    for incident in timeline.incidents:
        end_to_end += incident.end_to_end
        retries += incident.retries
        for name, value in incident.phase_totals().items():
            totals[name] = totals.get(name, 0.0) + value
    info: Dict[str, Any] = {
        "incidents": len(timeline.incidents),
        "end_to_end_s": round(end_to_end, round_to),
        "retries": retries,
        "phases": {
            name: round(value, round_to)
            for name, value in sorted(
                totals.items(), key=lambda item: (_phase_rank(item[0]), item[0])
            )
        },
    }
    if timeline.incidents:
        info["end_sources"] = sorted(
            {incident.end_source for incident in timeline.incidents}
        )
    jm = getattr(result, "jm", None)
    if jm is not None:
        from repro.metrics.collectors import stall_summary

        stall = stall_summary(jm)
        # The liveness verdict rides along so a stalled benchmark run is
        # visible in extra_info, not just in the raised exception.
        info["verdict"] = stall.pop("verdict")
        info.update(stall)
    return info
