"""Job and cluster configuration.

Two orthogonal knobs drive every experiment in the paper:

* the **fault-tolerance scheme** (:class:`FaultToleranceMode`), selecting
  vanilla-Flink global rollback, Clonos, or one of the weaker baselines —
  everything a mode decides is its :class:`RecoveryPolicy` row — and
* the **cost model** (:class:`CostModel`), which turns logical actions
  (processing a record, shipping a buffer, restarting a process) into
  simulated time so that throughput/latency/recovery *shapes* emerge from the
  mechanisms rather than being hard-coded.

Defaults are calibrated so that a saturated single task processes on the
order of 10⁴ records/s of simulated time, roughly 1/100 of the per-core rates
in the paper's testbed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import JobError


class FaultToleranceMode(enum.Enum):
    """Which recovery scheme the job runs under."""

    #: No fault tolerance at all (failures lose the job).
    NONE = "none"
    #: Flink-style global rollback: tear down the whole graph, restart from
    #: the last completed checkpoint (Section 3.2).
    GLOBAL_ROLLBACK = "global_rollback"
    #: Clonos: local recovery with in-flight logs + causal logging
    #: (+ optional standby tasks).
    CLONOS = "clonos"
    #: Gap recovery: restart the failed task from its checkpoint but replay
    #: nothing (at-most-once, Section 5.4).
    GAP_RECOVERY = "gap_recovery"
    #: Divergent local replay: in-flight logs without determinants
    #: (at-least-once, Clonos with DSD=0, Section 5.4).
    DIVERGENT = "divergent"
    #: SEEP/TimeStream-style local recovery with receiver-side deduplication
    #: keyed on monotonic logical timestamps; *assumes determinism* (Table 1).
    SEEP = "seep"


class Guarantee(enum.Enum):
    """Processing guarantee delivered by a scheme (Section 5.4)."""

    AT_MOST_ONCE = "at-most-once"
    AT_LEAST_ONCE = "at-least-once"
    EXACTLY_ONCE = "exactly-once"

    @staticmethod
    def of(mode: "FaultToleranceMode", deterministic_job: bool = False) -> "Guarantee":
        """The guarantee a mode provides (SEEP's depends on determinism)."""
        policy = POLICIES[mode]
        if deterministic_job and policy.receiver_dedup:
            # Count-based receiver dedup is exact iff regeneration is
            # deterministic (Table 1).
            return Guarantee.EXACTLY_ONCE
        return policy.guarantee


class RecoveryScope(enum.Enum):
    """What a failure rolls back (Falkirk Wheel's frontier choice): the
    failed task alone (standby or fresh deployment), or every task to the
    last completed checkpoint (vanilla Flink, Section 3.2)."""

    TASK = "task"
    JOB = "job"


@dataclass(frozen=True)
class RecoveryPolicy:
    """Everything a :class:`FaultToleranceMode` decides, in one place.

    One :class:`~repro.ft.coordinators.RecoveryCoordinator` serves every
    mode.  Its ``scope`` says what a failure rolls back; for the task scope,
    the other fields switch the steps of the supervised six-step pipeline on
    and off.  A mode without a scope (NONE) cannot recover at all.
    """

    #: The guarantee under nondeterministic operators (Section 5.4).
    guarantee: Guarantee
    #: What a detected failure rolls back; task scope also deploys standbys.
    #: None: nothing, the failure fails the job.
    scope: Optional[RecoveryScope] = None
    #: Upstreams log dispatched buffers and serve replay requests (step 4).
    inflight_log: bool = False
    #: Tasks piggyback and store determinants; recovery fetches them (step 3).
    causal_log: bool = False
    #: Regenerated buffers already delivered are suppressed by the sender
    #: (step 6); without it the sender resends everything.
    sender_dedup: bool = False
    #: SEEP: surviving receivers drop as many replayed records as they
    #: already consumed since the restored epoch.
    receiver_dedup: bool = False
    #: Gap recovery: a restarted source skips to live data.
    gap_skip: bool = False

    @property
    def fifo_strict(self) -> bool:
        """Whether a consumed buffer sequence number may never be
        re-delivered: true unless task-scope recovery resends without
        sender-side dedup (divergent, SEEP and gap replay legitimately do)."""
        return self.sender_dedup or self.scope is not RecoveryScope.TASK


#: The one table of per-mode recovery facts; read it via ``JobConfig.policy``.
POLICIES = {
    FaultToleranceMode.NONE: RecoveryPolicy(Guarantee.AT_MOST_ONCE),
    FaultToleranceMode.GLOBAL_ROLLBACK: RecoveryPolicy(
        Guarantee.EXACTLY_ONCE, scope=RecoveryScope.JOB
    ),
    FaultToleranceMode.CLONOS: RecoveryPolicy(
        Guarantee.EXACTLY_ONCE,
        scope=RecoveryScope.TASK, inflight_log=True, causal_log=True, sender_dedup=True,
    ),
    FaultToleranceMode.GAP_RECOVERY: RecoveryPolicy(
        Guarantee.AT_MOST_ONCE, scope=RecoveryScope.TASK, gap_skip=True
    ),
    FaultToleranceMode.DIVERGENT: RecoveryPolicy(
        Guarantee.AT_LEAST_ONCE, scope=RecoveryScope.TASK, inflight_log=True
    ),
    FaultToleranceMode.SEEP: RecoveryPolicy(
        Guarantee.AT_LEAST_ONCE,
        scope=RecoveryScope.TASK, inflight_log=True, receiver_dedup=True,
    ),
}


class SpillPolicy(enum.Enum):
    """In-flight log spill policies (Section 6.1)."""

    IN_MEMORY = "in-memory"
    SPILL_EPOCH = "spill-epoch"
    SPILL_BUFFER = "spill-buffer"
    SPILL_THRESHOLD = "spill-threshold"


@dataclass
class RetryPolicy:
    """Jittered exponential backoff, shared by every hardened retry loop
    (recovery steps, control RPCs, DFS access, external calls)."""

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Fractional jitter: each delay is scaled by 1 ± jitter (deterministic
    #: when the caller passes a seeded rng).
    jitter: float = 0.25

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


@dataclass
class CostModel:
    """Simulated-time costs of the physical actions in the system.

    All times are seconds of simulated time; all sizes are bytes.
    """

    # -- CPU ---------------------------------------------------------------
    #: Base cost of pushing one record through one operator.
    record_cpu_cost: float = 20e-6
    #: Cost per byte of (de)serialising record payloads.
    serialize_cost_per_byte: float = 4e-9
    #: Fixed per-buffer handling cost (syscalls, bookkeeping).
    buffer_overhead_cost: float = 15e-6

    # -- causal logging (Clonos overhead knobs) --------------------------------
    #: CPU cost of appending/serialising/merging one determinant log entry.
    #: The paper's closing remark ("reducing the overhead of causal logging
    #: through compressed data structures") is about exactly this constant.
    determinant_cpu_cost: float = 2.2e-6
    #: Per-dispatched-buffer bookkeeping of the in-flight log (the exchange).
    inflight_append_cost: float = 6e-6

    # -- network -------------------------------------------------------------
    #: One-way propagation latency of a network link.
    network_latency: float = 0.5e-3
    #: Link bandwidth in bytes/second.
    network_bandwidth: float = 120e6
    #: Latency of a control-plane RPC (job manager <-> task).
    rpc_latency: float = 2e-3
    #: How long a *reliable* control RPC waits for its ack before resending
    #: (must cover a round trip; see ``ControlQueue.send(reliable=True)``).
    rpc_ack_timeout: float = 10e-3

    # -- buffers -------------------------------------------------------------
    #: Serialised capacity of one network buffer.
    buffer_size_bytes: int = 4096
    #: Buffers in each output channel's pool (Flink keeps this small to
    #: preserve backpressure; Section 6.1).
    output_pool_buffers: int = 10
    #: Receiver-side queue depth per input channel (credits).
    input_queue_buffers: int = 8
    #: Periodic flush interval of the output flusher thread.
    flush_interval: float = 20e-3

    # -- durable storage -------------------------------------------------------
    #: DFS (HDFS-like) write and read bandwidth for checkpoints.
    dfs_write_bandwidth: float = 80e6
    dfs_read_bandwidth: float = 100e6
    #: Fixed latency of a DFS operation.
    dfs_latency: float = 5e-3
    #: Local disk bandwidth used by the spilling in-flight log.
    disk_bandwidth: float = 200e6
    disk_latency: float = 1e-3

    # -- failure detection & deployment ---------------------------------------
    #: Heartbeat period and timeout (paper Section 7.1: 4s / 6s).
    heartbeat_interval: float = 4.0
    heartbeat_timeout: float = 6.0
    #: Local-recovery modes detect failures by connection reset (TCP) on the
    #: neighbours, far faster than job-manager heartbeats.
    connection_failure_detection: float = 0.25
    #: Time to deploy a fresh task process (JVM/container start, code init).
    task_deploy_time: float = 8.0
    #: Time to cancel a running task during a global restart.
    task_cancel_time: float = 1.0
    #: Time for an idle standby task to start running (sub-second switch).
    standby_activation_time: float = 0.3
    #: How long a deferred ``kill_task`` injection waits for its victim to
    #: come back to RUNNING before giving up with a structured error.
    kill_deferral_deadline: float = 300.0
    #: Consecutive missed heartbeats before the failure detector *suspects* a
    #: task (false-positive suppression: a single delay spike is forgiven).
    suspicion_threshold: int = 3

    def transmission_time(self, size_bytes: int) -> float:
        """Wire time of one buffer."""
        return self.network_latency + size_bytes / self.network_bandwidth

    def serialize_time(self, size_bytes: int) -> float:
        return size_bytes * self.serialize_cost_per_byte

    def dfs_write_time(self, size_bytes: int) -> float:
        return self.dfs_latency + size_bytes / self.dfs_write_bandwidth

    def dfs_read_time(self, size_bytes: int) -> float:
        return self.dfs_latency + size_bytes / self.dfs_read_bandwidth

    def disk_write_time(self, size_bytes: int) -> float:
        return self.disk_latency + size_bytes / self.disk_bandwidth


@dataclass
class ClonosConfig:
    """Clonos-specific knobs (Sections 4-6)."""

    #: Determinant sharing depth; ``None`` means "full" (= graph depth).
    determinant_sharing_depth: Optional[int] = None
    #: Deploy passive standby tasks with state dispatch (high availability
    #: mode); without them, local recovery deploys a fresh task instead.
    standby_tasks: bool = True
    #: In-flight log spill policy.
    spill_policy: SpillPolicy = SpillPolicy.SPILL_THRESHOLD
    #: In-flight log buffer-pool budget per task, bytes (paper uses 80 MB;
    #: we scale with the rest of the simulation).
    inflight_pool_bytes: int = 512 * 1024
    #: Available-buffer fraction below which SPILL_THRESHOLD starts spilling.
    spill_threshold_fraction: float = 0.25
    #: Determinant buffer pool budget, bytes (paper: ~5 MB at DSD=1).
    determinant_pool_bytes: int = 64 * 1024
    #: Timestamp-service caching granularity (Section 4.2): timestamps are
    #: refreshed at most once per this many seconds, cutting determinant
    #: volume by ~100x.
    timestamp_granularity: float = 1e-3
    #: When more than DSD consecutive tasks fail: fall back to a global
    #: rollback (consistency) or skip dedup (availability, at-least-once).
    fallback_to_global: bool = True
    #: Standby placement anti-affinity: never co-locate a standby with the
    #: task it mirrors (Section 6.3).
    standby_anti_affinity: bool = True
    #: Per-step deadline of the 6-step recovery protocol: a step that does
    #: not finish within this window is killed and the attempt retried.
    recovery_step_deadline: float = 30.0
    #: Escalation ladder: how many local-recovery attempts (standby first,
    #: then fresh deployment from the DFS checkpoint) before degrading to
    #: global-rollback semantics.
    recovery_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, base_delay=0.2, multiplier=2.0, max_delay=5.0
        )
    )
    #: Backoff for checkpoint restore / snapshot upload against a flaky DFS.
    dfs_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, max_delay=2.0
        )
    )
    #: Backoff for external (HTTP-ish) service calls made through the causal
    #: services layer.
    external_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4, base_delay=0.02, multiplier=2.0, max_delay=0.5
        )
    )


@dataclass
class IntegrityConfig:
    """Artifact-integrity knobs (checksummed checkpoints & validated reads).

    Every persisted recovery artifact carries a content fingerprint
    (``repro.integrity``); these settings control whether fingerprints are
    *verified* on read/install and how many completed checkpoints the
    :class:`~repro.state.snapshot.SnapshotStore` retains for the multi-epoch
    fallback ladder.
    """

    #: Verify fingerprints on every read/install; ``False`` is the control
    #: configuration that demonstrates corruption would otherwise be silent.
    validate: bool = True
    #: Retain-last-N completed checkpoints.  N >= 2 gives global rollback an
    #: older known-good epoch to fall back to when the newest one is corrupt;
    #: everything older is subsumption-GCed from the DFS.
    retain_checkpoints: int = 2


@dataclass
class WatchdogConfig:
    """Recovery-liveness monitoring (:mod:`repro.recovery.watchdog`).

    The watchdog piggybacks its stall checks on the checkpoint
    coordinator's existing ticks — it schedules no simulation events of its
    own, so enabling it cannot perturb a schedule (the golden digests stay
    byte-identical).  It arms on the first detected failure and watches a
    job-wide progress fingerprint; a fingerprint frozen for a full stall
    window is announced as ``degraded:recovery_stalled`` and escalated,
    and a job that stays wedged despite escalation is killed with a
    structured :class:`~repro.errors.RecoveryStallError`.
    """

    enabled: bool = True
    #: Sim-seconds without any observed progress before the watchdog
    #: declares a stall.  ``None`` = auto-derive a window longer than every
    #: healthy quiet period the job can produce: max(3 s, 8x the checkpoint
    #: interval, 1.2x the effective checkpoint timeout, 2x the recovery
    #: step deadline + 1 s).
    stall_timeout: Optional[float] = None
    #: After the announced stage-1 escalation, how many additional stall
    #: windows (as a fraction of ``stall_timeout``) to allow the escalation
    #: before killing the job with :class:`RecoveryStallError`.
    escalation_grace: float = 1.0
    #: Announced escalations per job before the watchdog stops re-trying
    #: and goes terminal: a restart loop that wedges again each time is a
    #: stall, not progress.
    escalation_limit: int = 2


@dataclass
class JobConfig:
    """Everything needed to run one streaming job in the simulation."""

    mode: FaultToleranceMode = FaultToleranceMode.CLONOS
    checkpoint_interval: float = 5.0
    cost: CostModel = field(default_factory=CostModel)
    clonos: ClonosConfig = field(default_factory=ClonosConfig)
    #: Incremental checkpoints (Section 6.4): DFS writes are charged for the
    #: state *delta* only, cutting snapshot and standby-dispatch cost.
    incremental_checkpoints: bool = False
    #: Root seed for all randomness (workloads, the external world...).
    seed: int = 7
    #: Low-watermark emission period at sources.
    watermark_interval: float = 0.2
    #: Allowed out-of-orderness (lateness bound) for event-time watermarks.
    watermark_lateness: float = 0.5
    #: At-least-once control RPCs for the recovery-critical messages (replay
    #: requests): message ids, acks, timeout-driven resends.  Turning this
    #: off demonstrates how a lossy control plane wedges recovery.
    reliable_control_plane: bool = True
    #: Resend schedule of reliable control RPCs.
    rpc_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8, base_delay=0.02, multiplier=2.0, max_delay=0.5
        )
    )
    #: Abort a pending checkpoint whose barriers/acks never complete (e.g. an
    #: ``inject_barrier`` RPC was lost); ``None`` means 10x the interval.
    checkpoint_timeout: Optional[float] = None
    #: Artifact fingerprints, validated restores, checkpoint retention.
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)
    #: Recovery-liveness monitoring (stall detection + escalation).
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    #: How many times a poisoned record (chaos ``poison_pill``) may crash
    #: its operator before the :class:`~repro.chaos.poison.PoisonRegistry`
    #: quarantines it — skipping the record with an announced
    #: ``degraded:poison_quarantined`` event instead of crash-looping.
    poison_quarantine_after: int = 2

    @property
    def effective_checkpoint_timeout(self) -> float:
        if self.checkpoint_timeout is not None:
            return self.checkpoint_timeout
        return 10.0 * self.checkpoint_interval

    def validate(self) -> None:
        if self.checkpoint_interval <= 0:
            raise JobError("checkpoint_interval must be positive")
        dsd = self.clonos.determinant_sharing_depth
        if dsd is not None and dsd < 0:
            raise JobError("determinant sharing depth must be >= 0 or None (full)")
        if self.cost.heartbeat_timeout < self.cost.heartbeat_interval:
            raise JobError("heartbeat timeout must be >= interval")
        if self.integrity.retain_checkpoints < 1:
            raise JobError("integrity.retain_checkpoints must be >= 1")
        if (
            self.watchdog.stall_timeout is not None
            and self.watchdog.stall_timeout <= 0
        ):
            raise JobError("watchdog.stall_timeout must be positive (or None)")
        if self.watchdog.escalation_limit < 0 or self.watchdog.escalation_grace < 0:
            raise JobError("watchdog escalation knobs must be >= 0")
        if self.poison_quarantine_after < 1:
            raise JobError("poison_quarantine_after must be >= 1")

    def with_mode(self, mode: FaultToleranceMode, **clonos_overrides) -> "JobConfig":
        """A copy of this config under a different fault-tolerance scheme."""
        clonos = replace(self.clonos, **clonos_overrides) if clonos_overrides else self.clonos
        return replace(self, mode=mode, clonos=clonos)

    @property
    def policy(self) -> RecoveryPolicy:
        """What the fault-tolerance mode decides (derived, not settable)."""
        return POLICIES[self.mode]

    @property
    def guarantee(self) -> Guarantee:
        if self.policy.causal_log and self.clonos.determinant_sharing_depth == 0:
            return Guarantee.AT_LEAST_ONCE
        return self.policy.guarantee
