"""Structured, sim-time-stamped event bus for Clonos dataflows.

Every :class:`~repro.runtime.jobmanager.JobManager` owns one
:class:`TraceLog` (``jm.trace``); the instrumented layers record each fact
with one :meth:`TraceLog.emit`, and the bus fills two views of it: the
**trace view** (the log itself, :class:`TraceEvent` records for the
timeline, the exporters, the watchdog's open phase and ND210) and the
**recovery view** (``jm.recovery_events``, ``(t, kind, subject)`` strings
for the verdicts, the scenario transcripts and the metrics).  Both are
always recorded.  :data:`EVENT_KINDS` declares every kind and what each
view records of it.

Design constraints:

* **Passive.** ``emit`` only appends tuples of already-computed sim values
  to Python lists.  It never schedules sim events, never reads wall clocks,
  and never touches RNG state, so what the views record cannot change
  sim-time behaviour (asserted by ``tests/trace/test_passivity.py``, which
  runs the same experiment with every row untraced).
* **Cheap.** Emitted at checkpoint, recovery and fault events only, never
  per record.
* **Self-contained.** Events carry plain scalars (str/int/float/bool) so the
  exporters can serialise them deterministically.

Phase names used with ``phase-begin``/``phase-end``/``phase-mark`` follow the
paper's six-step recovery protocol plus the detection/catch-up bookends; see
:data:`repro.trace.timeline.PHASE_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Tuple, Union

#: A recovery-view entry: a kind-string format, or a ``(kind, subject)`` pair
#: of formats, filled from the event's ``subject`` and args.
Template = Union[str, Tuple[str, str]]
Templates = Tuple[Template, ...]


@dataclass(frozen=True)
class EventKind:
    """Everything the bus does with one kind of event, in one place."""

    #: The recovery-view entries it renders; a function of the event's args
    #: when they depend on them.
    recovery: Union[Templates, Callable[[Dict[str, Any]], Templates]] = ()
    #: Whether the trace view records it.
    traced: bool = False
    #: Whether the Chrome trace shows the trace-view events of this kind as
    #: instants (everything else is span-structured or replay bookkeeping).
    instant: bool = False
    #: The rendered kind-strings that announce degraded (at-least-once)
    #: semantics, which the gates' verdict reads.
    announces: Tuple[str, ...] = ()


def _kind(*recovery, traced=False, instant=False, announces=()):
    """A row rendering fixed templates; an instant is traced."""
    return EventKind(recovery, traced or instant, instant, announces)


def _degraded(args: Dict[str, Any]) -> Templates:
    """Rung 3 names the corrupt artifact first, unless the ladder ran out."""
    if args["reason"] == "ladder-exhausted":
        return ("degraded:global_rollback",)
    return ("integrity:{reason}", "degraded:global_rollback")


_STEP_ENDS = {"error": ("step-failed:{phase}",), "timeout": ("step-timeout:{phase}",)}

#: The one vocabulary of the bus: kind -> what each view records of it.
EVENT_KINDS: Dict[str, EventKind] = {
    # -- the trace view only: checkpoint cuts, phases, replay, transfers -----
    **dict.fromkeys((
        "checkpoint-triggered", "snapshot-taken", "checkpoint-complete",
        "checkpoint-aborted", "phase-begin", "phase-mark", "replay-loaded",
        "replay-exhausted", "standby-transfer-begin", "standby-transfer-done",
    ), _kind(traced=True)),
    # -- checkpoints (``checkpoint_id``) -------------------------------------
    "checkpoint-timeout": _kind(("checkpoint-aborted:timeout", "{checkpoint_id}")),
    "checkpoint-upload-failed": _kind("checkpoint-upload-failed"),
    "alignment-cancelled": _kind("alignment-cancelled:{checkpoint_id}"),
    # -- faults and detection ------------------------------------------------
    "failure-injected": _kind(instant=True),
    "chaos-fault": _kind("chaos:{fault}", instant=True),
    "poison-crash": _kind("poison-crash", traced=True),
    "external-crash": _kind("external-crash", traced=True),
    "suspected": _kind("suspected:{misses}"),
    "spurious-failover": _kind("spurious-failover"),
    "failure-detected": _kind("detected", instant=True),
    "integrity-violation": _kind(instant=True),
    "link-repair": _kind("link-repair"),
    # -- task-scope recovery (the six steps, supervised) ---------------------
    "orphan-fallback": _kind(
        "orphan-fallback", instant=True, announces=("orphan-fallback",)
    ),
    "orphan-skip-dedup": _kind("orphan-skip-dedup"),
    "orphan-externalized-output": _kind("orphan-externalized-output", traced=True),
    "recovery-superseded": _kind("recovery-superseded"),
    "phase-end": EventKind(lambda a: _STEP_ENDS.get(a["status"], ()), traced=True),
    "dfs-retry": _kind("dfs-retry"),
    "recovery-incarnation-abandoned": _kind("recovery-incarnation-abandoned"),
    "determinant-log-invalid": _kind("integrity:determinant-log"),
    "local-restore-unavailable": _kind("integrity:local-restore-unavailable"),
    "rpc-retry": _kind("rpc-retry:{rpc}:{attempt}"),
    "rpc-exhausted": _kind("rpc-exhausted:{rpc}"),
    "replay-diverged": _kind("replay-diverged", announces=("replay-diverged",)),
    "determinant-delta-gap": _kind("determinant-delta-gap"),
    "recovery-retry": _kind("recovery-retry:{label}", instant=True),
    "task-recovered": _kind("recovered", instant=True),
    # -- degradation and the job scope ---------------------------------------
    "degraded": EventKind(
        _degraded, traced=True, instant=True, announces=("degraded:global_rollback",)
    ),
    "poison-quarantined": _kind(
        "degraded:poison_quarantined", traced=True,
        announces=("degraded:poison_quarantined",),
    ),
    "recovery-stalled": _kind(
        "recovery-stalled:{phase}", "degraded:recovery_stalled", traced=True,
        announces=("degraded:recovery_stalled",),
    ),
    "recovery-stall-fatal": _kind("recovery-stall-fatal", traced=True),
    "global-restart-begin": _kind(
        "global-restart-begin", traced=True, announces=("global-restart-begin",)
    ),
    "global-restart-failed": _kind("global-restart-failed"),
    "global-restart-done": _kind("global-restart-done", traced=True),
    "restore-failed": _kind("integrity:restore-failed"),
    "epoch-invalid": _kind("integrity:epoch-invalid:{epoch}"),
    "epoch-fallback": _kind(
        "integrity:epoch-fallback:{latest}->{epoch}",
        ("degraded:global_rollback", "epoch-fallback"),
        announces=("degraded:global_rollback",),
    ),
    "no-valid-epoch": _kind(
        "integrity:no-valid-epoch", ("degraded:global_rollback", "no-valid-epoch"),
        announces=("degraded:global_rollback",),
    ),
    "timeline-rewind": _kind(
        ("integrity:timeline-rewind:{epoch}", "dropped={dropped}")
    ),
    # -- standbys ------------------------------------------------------------
    "standby-lost": _kind("standby-lost", instant=True),
    "standby-lost-again": _kind("standby-lost"),
    "standby-evicted": _kind("standby-evicted", instant=True),
    "standby-reprovision-deferred": _kind("standby-reprovision-deferred"),
    "standby-reprovisioned": _kind("standby-reprovisioned"),
}

#: Every recovery-view kind-string that announces degraded semantics.
ANNOUNCED = frozenset(m for kind in EVENT_KINDS.values() for m in kind.announces)


class TraceEvent(NamedTuple):
    """One structured trace record stamped with the sim time it occurred."""

    time: float
    kind: str
    subject: str
    args: Tuple[Tuple[str, Any], ...]

    def arg(self, name: str, default: Any = None) -> Any:
        for key, value in self.args:
            if key == name:
                return value
        return default

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
        }
        if self.args:
            doc["args"] = dict(self.args)
        return doc


class TraceLog:
    """Append-only, sim-time-ordered event bus: the trace view (iterating
    the log) and the recovery view (:attr:`recovery`)."""

    __slots__ = ("events", "recovery")

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.recovery: List[Tuple[float, str, str]] = []

    def emit(self, time: float, kind: str, subject: str = "", **args: Any) -> None:
        """Record one fact of an :data:`EVENT_KINDS` kind into both views."""
        spec = EVENT_KINDS[kind]
        for entry in spec.recovery(args) if callable(spec.recovery) else spec.recovery:
            what, who = (entry, "{subject}") if isinstance(entry, str) else entry
            named = dict(args, subject=subject)
            self.recovery.append((time, what.format_map(named), who.format_map(named)))
        if spec.traced:
            self.events.append(
                TraceEvent(time, kind, subject, tuple(sorted(args.items())))
            )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)
