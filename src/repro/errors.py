"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class NetworkError(ReproError):
    """A network-layer invariant was violated (e.g. non-FIFO delivery)."""


class StateError(ReproError):
    """State backend misuse (unknown descriptor, missing key context)."""


class CheckpointError(ReproError):
    """Checkpoint could not be taken, acknowledged, or restored."""

class JobError(ReproError):
    """Invalid job graph or job-level runtime failure."""


class RecoveryError(ReproError):
    """The recovery protocol could not complete."""


class RecoveryStallError(JobError):
    """Recovery (or the post-recovery drain) stopped making progress,
    structured for tooling.

    Raised by the recovery-liveness watchdog
    (:class:`repro.recovery.watchdog.RecoveryWatchdog`) when escalation
    cannot unwedge the job, and by ``JobManager.run_until_done`` when its
    deadline expires — so a hung run surfaces *where* it was stuck instead
    of a bare timeout.  Carries the stuck protocol phase, the last sim-time
    any progress was observed, and every task's replay position at the
    moment of the stall.  Subclasses :class:`JobError` so existing
    deadline-handling callers keep working unchanged.
    """

    def __init__(
        self,
        where: str,
        phase: str,
        last_progress_at: float,
        replay_positions: dict,
        detail: str = None,
        incident: int = None,
    ):
        message = (
            f"recovery stalled at {where!r} in phase {phase!r} "
            f"(no progress since t={last_progress_at:g}s"
        )
        if incident is not None:
            message += f", incident #{incident}"
        message += ")"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.where = where
        self.phase = phase
        self.last_progress_at = last_progress_at
        self.replay_positions = replay_positions
        self.detail = detail
        self.incident = incident


class ChaosError(ReproError):
    """A fault plan is invalid or targets something that does not exist."""


class ScenarioError(ChaosError):
    """A declarative scenario (``repro.scenarios``) is malformed.

    Raised at *load* time — ``Scenario.from_dict`` / ``Scenario.validate``
    — for unknown fault kinds, negative phase offsets, missing verdict
    specs, unknown keys, and inconsistent workload shaping, so a bad
    scenario file fails loudly before anything runs.  Subclasses
    :class:`ChaosError`: scenario loaders and plan validators share one
    catchable family.
    """


class PoisonPillError(ReproError):
    """A poisoned record reached its operator (chaos ``poison_pill``).

    Raised by the task's record path *before* the operator sees the record
    (no state mutation, no output), so every incarnation that encounters
    the pill crashes identically until the
    :class:`~repro.chaos.poison.PoisonRegistry` quarantines it.
    """

    def __init__(self, task_name: str, origin):
        super().__init__(f"{task_name}: poisoned record {origin!r}")
        self.task_name = task_name
        self.origin = origin


class FailureInjectionError(JobError):
    """A fault could not be injected, structured for tooling.

    Carries the victim and its *actual* status so chaos schedules can tell
    "victim already finished" apart from "victim never came back".
    """

    def __init__(self, victim: str, status, waited: float = None):
        status_name = getattr(status, "value", status)
        message = f"cannot kill {victim}: status is {status_name}"
        if waited is not None:
            message += f" after deferring {waited:g}s"
        super().__init__(message)
        self.victim = victim
        self.status = status
        self.waited = waited


class DeterminantLogError(RecoveryError):
    """The determinant log is malformed or diverges from re-execution."""


class IntegrityError(RecoveryError):
    """A recovery artifact failed content validation, structured for tooling.

    Raised when a checkpoint blob, standby state image, spilled in-flight
    segment, or determinant log is readable but *wrong* — its recomputed
    content fingerprint no longer matches the fingerprint recorded when the
    artifact was produced.  Subclasses :class:`RecoveryError` so the
    escalation ladder treats "readable but corrupt" like any other failed
    recovery step (retry, fall back, degrade) instead of crashing the job.
    """

    def __init__(
        self,
        artifact: str,
        name: str,
        expected=None,
        actual=None,
        detail: str = None,
    ):
        message = f"integrity violation in {artifact} {name!r}"
        if detail:
            message += f": {detail}"
        if expected is not None or actual is not None:
            message += f" (expected crc={expected!r}, got crc={actual!r})"
        super().__init__(message)
        self.artifact = artifact
        self.name = name
        self.expected = expected
        self.actual = actual
        self.detail = detail


class ExternalSystemError(ReproError):
    """Simulated external system (Kafka/DFS/HTTP) rejected an operation."""
