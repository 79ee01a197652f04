"""The recovery-liveness watchdog: stuck recovery is announced, never silent.

Two design constraints shape everything here:

* **Event passivity.**  The golden determinism digests
  (:mod:`repro.bench.golden`) hash *every* popped kernel event of a
  kill-and-recover run, so the watchdog must not schedule a single
  simulation event of its own while the job is healthy.  It therefore
  piggybacks its stall checks on the checkpoint coordinator's existing
  ticks — a loop that keeps firing every checkpoint interval for the whole
  life of the job, including during a wedge (stuck checkpoints abort on
  their timeout and the loop continues).  A watchdog-enabled healthy run is
  byte-identical to a watchdog-disabled one.

* **A wedge produces events without producing progress.**  A hung recovery
  still generates checkpoint-abort events every timeout window, so "the
  event log grew" is *not* progress.  The watchdog instead fingerprints the
  state that only moves when real work happens: task statuses, processed
  record counts, source offsets, replay determinant counters, per-channel
  delivered/sent sequence numbers, completed checkpoints, and the
  dead/recovering/finished sets.  (Counters that recur during a hang —
  aborted checkpoints, event-list length — are deliberately excluded.)

The response is staged.  A fingerprint frozen for a full stall window is
**announced** (``recovery-stalled:<phase>`` + ``degraded:recovery_stalled``
in the recovery events, mirroring the escalation ladder's degradation
markers) and escalated through the existing PR 3 ladder — the coordinator's
global-rollback fallback regenerates whatever the wedged replay was waiting
for.  If the job wedges again after ``escalation_limit`` announced
escalations, or the escalation itself makes no progress for the grace
window, the watchdog goes terminal: it parks a structured
:class:`~repro.errors.RecoveryStallError` on ``jm.crashed`` (and pulses the
done signal) so ``run_until_done`` raises it immediately instead of
grinding to the harness deadline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RecoveryStallError, ReproError


def replay_positions(jm) -> Dict[str, Dict[str, Any]]:
    """Diagnostics-grade per-task progress positions: status, processed
    records, source offset, replayed determinant counts, and the
    delivered/sent sequence number of every channel."""
    positions: Dict[str, Dict[str, Any]] = {}
    for name in sorted(jm.vertices):
        task = jm.vertices[name].task
        if task is None:
            positions[name] = {"status": "absent"}
            continue
        entry: Dict[str, Any] = {
            "status": task.status.value,
            "records_processed": task.records_processed,
            "replay_active": task.recovery.active,
            "replayed_control": task.recovery.replayed_control,
            "replayed_values": task.recovery.replayed_values,
        }
        offset = getattr(task.operator, "offset", None)
        if offset is not None:
            entry["source_offset"] = offset
        if task.gate is not None:
            entry["delivered_seqs"] = [
                channel.delivered_seq for channel in task.gate.channels
            ]
        out_seqs = [channel.seq for channel in task.all_output_channels]
        if out_seqs:
            entry["out_seqs"] = out_seqs
        positions[name] = entry
    return positions


def current_phase(jm) -> str:
    """The protocol phase the job is in: the last ``phase-begin`` or
    ``phase-mark`` the bus recorded for a recovering task or the whole job
    (``"*"``), else where the job stands."""
    if jm.recovering_tasks:
        subjects = {*jm.recovering_tasks, "*"}
        for event in reversed(jm.trace.events):
            opens = event.kind in ("phase-begin", "phase-mark")
            if opens and event.subject in subjects:
                return event.arg("phase")
        return "recovering"
    if jm.dead_tasks:
        return "failed:awaiting-recovery"
    if not jm._job_finished():
        return "post-recovery-drain"
    return "finished"


def stall_diagnostics(
    jm,
    last_progress_at: Optional[float] = None,
    where: Optional[str] = None,
    detail: Optional[str] = None,
    incident: Optional[int] = None,
) -> RecoveryStallError:
    """Build the structured stall error from the job's current state.

    Works with the watchdog disabled too — ``run_until_done`` uses this on
    deadline expiry so even an unmonitored hang dies with a diagnostic.
    """
    if where is None:
        for pool in (jm.recovering_tasks, jm.dead_tasks):
            if pool:
                where = sorted(pool)[0]
                break
        else:
            where = "job"
    if last_progress_at is None:
        last_progress_at = jm.env.now
    if incident is None and jm.failures_injected:
        incident = len(jm.failures_injected) - 1
    return RecoveryStallError(
        where,
        current_phase(jm),
        last_progress_at,
        replay_positions(jm),
        detail=detail,
        incident=incident,
    )


class RecoveryWatchdog:
    """Sim-time recovery-liveness monitor for one :class:`JobManager`.

    Armed by the first detected failure (``incident_opened``), ticked by the
    checkpoint coordinator's loop (``on_tick``), disarmed when the job
    finishes.  See the module docstring for the staging.
    """

    def __init__(self, jm):
        self.jm = jm
        self.config = jm.config.watchdog
        self.enabled = self.config.enabled
        #: (opened_at, victim) per detected failure — the incident ledger.
        self.incidents: List[Tuple[float, str]] = []
        #: Stall windows that actually expired (the "detected >= 1" count).
        self.stalls_detected = 0
        #: Announced stage-1 escalations issued.
        self.escalations = 0
        self._armed = False
        self._last_fingerprint: Optional[tuple] = None
        self._last_progress_at = 0.0
        #: 0 = watching; 1 = stage-1 escalation issued, grace running.
        self._stage = 0

    # -- configuration -----------------------------------------------------------

    @property
    def stall_timeout(self) -> float:
        """The configured stall window, or the auto-derived one: longer than
        every quiet period healthy machinery produces (checkpoint cadence,
        checkpoint abort timeout, a recovery step timing out + its backoff)."""
        if self.config.stall_timeout is not None:
            return self.config.stall_timeout
        config = self.jm.config
        return max(
            3.0,
            8.0 * config.checkpoint_interval,
            1.2 * config.effective_checkpoint_timeout,
            2.0 * config.clonos.recovery_step_deadline + 1.0,
        )

    @property
    def last_progress_at(self) -> Optional[float]:
        return self._last_progress_at if self._armed else None

    # -- hooks (called by the JobManager; never schedule sim events) -----------------

    def incident_opened(self, victim: str) -> None:
        """A failure was detected: open an incident and arm the monitor."""
        if not self.enabled:
            return
        self.incidents.append((self.jm.env.now, victim))
        if not self._armed:
            self._armed = True
            self._last_fingerprint = None
            self._last_progress_at = self.jm.env.now
            self._stage = 0

    def on_tick(self) -> None:
        """Piggybacked stall check — pure observation unless a stall fires."""
        if not self.enabled or not self._armed:
            return
        jm = self.jm
        if jm._job_finished() or jm.crashed:
            self._armed = False
            return
        fingerprint = self._fingerprint()
        now = jm.env.now
        if fingerprint != self._last_fingerprint:
            self._last_fingerprint = fingerprint
            self._last_progress_at = now
            self._stage = 0
            return
        stalled_for = now - self._last_progress_at
        if self._stage == 0:
            if stalled_for >= self.stall_timeout:
                self.stalls_detected += 1
                if self.escalations >= self.config.escalation_limit:
                    # Escalation already ran its course and the job wedged
                    # again: a restart loop is a stall, not progress.
                    self._give_up("re-stalled after escalation")
                else:
                    self._declare_stall()
        elif stalled_for >= (1.0 + self.config.escalation_grace) * self.stall_timeout:
            self._give_up("escalation made no progress")

    # -- internals ---------------------------------------------------------------

    def _fingerprint(self) -> tuple:
        """Everything that moves iff the job makes real progress.  Aborted
        checkpoints and event-log length recur during a wedge and are
        deliberately excluded."""
        jm = self.jm
        parts: List[Any] = [
            jm.completed_checkpoint,
            len(jm.checkpoints_completed),
            tuple(sorted(jm.dead_tasks)),
            tuple(sorted(jm.recovering_tasks)),
            len(jm._finished_tasks),
        ]
        for name in sorted(jm.vertices):
            task = jm.vertices[name].task
            if task is None:
                parts.append((name,))
                continue
            gate_seqs = (
                tuple(ch.delivered_seq for ch in task.gate.channels)
                if task.gate is not None
                else ()
            )
            parts.append(
                (
                    name,
                    task.status.value,
                    task.records_processed,
                    task.recovery.replayed_control,
                    task.recovery.replayed_values,
                    getattr(task.operator, "offset", None),
                    gate_seqs,
                    tuple(ch.seq for ch in task.all_output_channels),
                )
            )
        return tuple(parts)

    def _victim(self) -> str:
        jm = self.jm
        for pool in (jm.recovering_tasks, jm.dead_tasks):
            if pool:
                return sorted(pool)[0]
        if self.incidents:
            return self.incidents[-1][1]
        return sorted(jm.vertices)[0]

    def _declare_stall(self) -> None:
        """Stage 1: announce the stall and push it through the escalation
        ladder — the global-rollback fallback regenerates whatever the
        wedged replay was waiting for."""
        jm = self.jm
        victim = self._victim()
        self._stage = 1
        self.escalations += 1
        jm.trace.emit(
            jm.env.now, "recovery-stalled", victim, phase=current_phase(jm),
            last_progress_at=self._last_progress_at, stall_timeout=self.stall_timeout,
        )
        try:
            jm.coordinator.escalate(victim)
        except ReproError:
            # A mode that cannot escalate (NONE) or a restart that is itself
            # wedged: the grace window expires into the terminal stage.
            pass

    def _give_up(self, why: str) -> None:
        """Stage 2: the job is unrecoverably wedged — surface the structured
        stall error through the crash path so the harness raises it now
        instead of at its deadline."""
        jm = self.jm
        victim = self._victim()
        error = stall_diagnostics(
            jm,
            last_progress_at=self._last_progress_at,
            where=victim,
            detail=(
                f"{why} (stall window {self.stall_timeout:g}s, "
                f"{self.escalations} escalation(s) issued)"
            ),
            incident=len(self.incidents) - 1 if self.incidents else None,
        )
        jm.trace.emit(jm.env.now, "recovery-stall-fatal", victim, why=why)
        self._armed = False
        jm.crashed.append(("recovery-watchdog", error))
        jm._job_over()
