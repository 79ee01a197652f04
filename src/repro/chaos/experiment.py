"""The fault-experiment engine: run one job under one fault schedule, grade it.

Every fault gate in this repo — the chaos soak, the integrity soak, the
transparency explorer, the scenario pack — asks the question *Failure
Transparency in Stateful Dataflow Systems* (PAPERS.md) poses: is the faulty
execution observationally equivalent to the failure-free one, **or is the
divergence announced**?  The gates differ only in how the fault schedule is
generated (random plan, corruption plan, enumerated kill point, declared
phases) and in which extra checks ride along; everything else is here, once:

* :class:`SoakJob` — the synthetic nondeterministic chain into an
  exactly-once sink, and :func:`fast_chaos_config` for it;
* :func:`run_experiment` — the harness run
  (:func:`repro.harness.experiment.deploy_experiment`, the one primitive
  that builds, arms, samples and drives every simulated job) projected onto
  an :class:`Observation`; a hang, a watchdog stall or an un-injectable
  fault is a *field* of it, never an exception the caller must catch;
* :func:`baseline` — the cached failure-free reference run;
* :func:`origin_projection` — sink records projected to their input origin
  ``(partition, offset)``, the identity exactly-once is judged on
  (wall-clock stamps shift legitimately when recovery delays the suffix);
* :func:`grade` — the verdict function, one vocabulary for every gate:

  ``transparent``
      the origin projection equals the failure-free one: exactly-once.
  ``announced-degradation``
      duplicates, or loss of records the poison registry quarantined, and
      the run *recorded* an event that :data:`~repro.trace.events.EVENT_KINDS`
      declares announcing: at-least-once with the divergence announced,
      which the contract permits.
  ``violation:<why>``
      ``data-loss``, ``alien-output``, ``silent-duplication``,
      ``recovery-stalled``, ``hang``, or — under ``strict`` —
      ``degradation-not-permitted``.  Fails the gate.
  ``skipped:<why>``
      the schedule probed nothing (``victim-finished``, ``kill-not-landed``);
      a visible coverage hole, neither pass nor failure.

Every run is deterministic (sim time, seeded services): a failing seed,
case or scenario replays identically from its label.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import FaultPlan
from repro.config import CostModel, FaultToleranceMode, JobConfig
from repro.errors import FailureInjectionError, JobError, RecoveryStallError
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph
from repro.harness.experiment import deploy_experiment
from repro.runtime.jobmanager import JobManager
from repro.trace.events import ANNOUNCED
from repro.workloads.synthetic import WorkloadShaping, synthetic_chain

Origin = Tuple[int, int]
Event = Tuple[float, str, str]
#: A fault schedule: a plan, or a callable given the deployed job manager
#: that returns a plan (so random plans can target real task/link names) or
#: arms its faults itself and returns None.
Faults = Union[None, FaultPlan, Callable[[JobManager], Optional[FaultPlan]]]

IN_TOPIC = "soak-in"
OUT_TOPIC = "soak-out"


def fast_chaos_config(seed: int = 7, checkpoint_interval: float = 0.5) -> JobConfig:
    """The soak config: Clonos with sub-second detection/deploy/activation,
    so a whole chaotic run fits in a few simulated seconds."""
    cost = CostModel(
        heartbeat_interval=0.3,
        heartbeat_timeout=0.5,
        task_deploy_time=0.2,
        task_cancel_time=0.05,
        standby_activation_time=0.02,
        connection_failure_detection=0.02,
        kill_deferral_deadline=60.0,
    )
    config = JobConfig(
        mode=FaultToleranceMode.CLONOS,
        checkpoint_interval=checkpoint_interval,
        cost=cost,
        seed=seed,
    )
    config.clonos.recovery_step_deadline = 5.0
    return config


@dataclass(frozen=True)
class SoakJob:
    """What a fault experiment runs — by default the soak workload: source
    -> wall-clock-stamping keyed stages -> exactly-once sink, on a cluster
    with ``spare_nodes`` beyond the minimum.  Frozen, so a job is its own
    baseline-cache key; a subclass overriding :meth:`build` runs another
    graph over the same ``parallelism x n_records`` input."""

    depth: int = 3
    parallelism: int = 2
    n_records: int = 1200
    rate: float = 2000.0
    state_bytes: int = 8192
    num_keys: int = 16
    shaping: Optional[WorkloadShaping] = None
    spare_nodes: int = 0
    zones: int = 1

    def build(self, log: DurableLog, external=None) -> JobGraph:
        return synthetic_chain(
            log,
            depth=self.depth,
            parallelism=self.parallelism,
            rate_per_partition=self.rate,
            total_per_partition=self.n_records,
            state_bytes_per_task=self.state_bytes,
            num_keys=self.num_keys,
            nondeterministic=True,
            in_topic=IN_TOPIC,
            out_topic=OUT_TOPIC,
            exactly_once_sink=True,
            shaping=self.shaping,
        )

    @property
    def expected(self) -> Set[Origin]:
        """Failure-free output origins: each input record exactly once."""
        return {
            (p, off)
            for p in range(self.parallelism)
            for off in range(self.n_records)
        }


def origin_projection(values) -> Counter:
    """Sink record values -> multiset of input origins ``(partition, offset)``."""
    return Counter((v[0], v[1]) for v in values)


@dataclass
class Observation:
    """Everything observable about one run.  Plain data up to ``duration``,
    so verdict tests can hand-build one without simulating."""

    expected: Set[Origin]
    projection: Counter
    recovery_events: List[Event] = field(default_factory=list, repr=False)
    #: What ended the run early, if anything (hang, stall, un-injectable kill).
    error: Optional[JobError] = None
    kills_landed: int = 0
    #: Origins the poison registry quarantined (announced loss).
    quarantined: FrozenSet[Origin] = frozenset()
    duration: float = 0.0
    #: The chaos engine's closing summary (empty for a run without faults).
    chaos: Dict[str, object] = field(default_factory=dict)
    jm: Optional[JobManager] = field(default=None, repr=False)
    engine: Optional[ChaosEngine] = field(default=None, repr=False)

    @property
    def degradations(self) -> List[Event]:
        return [e for e in self.recovery_events if e[1] in ANNOUNCED]

    def release(self) -> None:
        """Drop the cluster and the per-record origins once the verdict and
        the ride-along checks have read them: a suite keeps what it reports."""
        self.jm = self.engine = self.projection = self.expected = None


def run_experiment(
    job: SoakJob, faults: Faults, config: JobConfig, limit: float = 120.0
) -> Observation:
    """Deploy ``job``, arm ``faults``, run to completion or ``limit``
    simulated seconds, and report what happened: the harness run
    (:func:`repro.harness.experiment.deploy_experiment`) projected onto an
    :class:`Observation`."""
    result = deploy_experiment(
        job.build,
        config,
        faults,
        out_topic=OUT_TOPIC,
        spare_nodes=job.spare_nodes,
        zones=job.zones,
    )
    error = None
    try:
        result.run(limit=limit)
    except JobError as exc:  # incl. RecoveryStallError, FailureInjectionError
        error = exc
    jm = result.jm
    return Observation(
        expected=job.expected,
        projection=origin_projection(result.output_values()),
        recovery_events=list(result.recovery_events),
        error=error,
        kills_landed=len(result.failures),
        quarantined=frozenset(ident for _task, ident in jm.poison.quarantine_log),
        duration=result.duration,
        chaos=result.engine.summary() if result.engine is not None else {},
        jm=jm,
        engine=result.engine,
    )


@dataclass
class FaultResult:
    """One graded fault experiment — the record every gate reports."""

    label: str  # seed, failure-point label or scenario name: replays the run
    outcome: str  # see the module docstring for the vocabulary
    detail: str
    expected: int
    missing: int
    duplicated: int  # surplus copies of expected origins
    extra: int  # records whose origin is outside the expected set
    obs: Observation = field(repr=False)

    @property
    def ok(self) -> bool:
        return not self.outcome.startswith("violation")

    @property
    def delivered(self) -> int:
        """Sink records: present expected origins, surplus copies, aliens."""
        return self.expected - self.missing + self.duplicated + self.extra


def grade(
    label, obs: Observation, strict: bool = False, kills_planned: int = 0
) -> FaultResult:
    """The verdict function: map an observation onto the lattice.

    ``strict`` refuses announced degradation too (a scenario that demands
    exactly-once outright); ``kills_planned`` is how many kills the schedule
    meant to land (fewer landed means it probed nothing).
    """
    projection, expected = obs.projection, obs.expected
    missing = [pair for pair in expected if projection[pair] == 0]
    extra = sum(c for pair, c in projection.items() if pair not in expected)
    duplicated = sum(
        c - 1 for pair, c in projection.items() if c > 1 and pair in expected
    )
    lost = [pair for pair in missing if strict or pair not in obs.quarantined]
    detail = ""
    if obs.error is not None:
        detail = str(obs.error)
        if isinstance(obs.error, FailureInjectionError):
            outcome = "skipped:victim-finished"
        elif isinstance(obs.error, RecoveryStallError):
            outcome = "violation:recovery-stalled"
        else:
            outcome = "violation:hang"
    elif obs.kills_landed < kills_planned:
        outcome = "skipped:kill-not-landed"
        detail = f"{obs.kills_landed}/{kills_planned} kills landed"
    elif lost:
        outcome = "violation:data-loss"
        detail = f"{len(lost)} records silently lost, e.g. {sorted(lost)[:3]}"
    elif extra:
        outcome = "violation:alien-output"
        detail = f"{extra} records outside the failure-free set"
    elif duplicated and not obs.degradations:
        outcome = "violation:silent-duplication"
        detail = f"{duplicated} duplicates without an announced degradation"
    elif duplicated and strict:
        outcome = "violation:degradation-not-permitted"
        detail = f"{duplicated} announced duplicates, but exactly-once is required"
    elif duplicated or missing:
        outcome = "announced-degradation"
    else:
        outcome = "transparent"
    return FaultResult(
        label=str(label),
        outcome=outcome,
        detail=detail,
        expected=len(expected),
        missing=len(missing),
        duplicated=duplicated,
        extra=extra,
        obs=obs,
    )


@dataclass
class Baseline:
    """The failure-free reference run: its duration anchors overhead
    figures, its checkpoint instants anchor enumerated failure points."""

    duration: float
    #: (task, checkpoint_id) -> local snapshot instant
    snapshot_times: Dict[Tuple[str, int], float]
    #: checkpoint_id -> completion instant, ascending ids
    completed: Dict[int, float]
    tasks: Tuple[str, ...]


#: (job, seed, checkpoint interval) -> Baseline.  Experiments sharing a job
#: pay for one failure-free run, not one each.
_BASELINES: Dict[Tuple, Baseline] = {}


def baseline(
    job: SoakJob, seed: int, checkpoint_interval: float, limit: float = 120.0
) -> Baseline:
    """The failure-free run of ``job`` (cached); raises :class:`JobError`
    unless its output is exactly-once — that would be a workload bug, not a
    finding about recovery."""
    key = (job, seed, checkpoint_interval)
    if key in _BASELINES:
        return _BASELINES[key]
    config = fast_chaos_config(seed=seed, checkpoint_interval=checkpoint_interval)
    result = grade("baseline", run_experiment(job, None, config, limit))
    if result.outcome != "transparent":
        raise JobError(
            f"failure-free baseline for {job!r} is {result.outcome}: "
            f"{result.detail or 'not exactly-once'}"
        )
    snapshot_times: Dict[Tuple[str, int], float] = {}
    completed: Dict[int, float] = {}
    for event in result.obs.jm.trace:
        if event.kind in ("snapshot-taken", "checkpoint-complete"):
            cid = event.arg("checkpoint_id")
            if cid is None:
                continue
            if event.kind == "snapshot-taken":
                snapshot_times.setdefault((event.subject, cid), event.time)
            else:
                completed.setdefault(cid, event.time)
    _BASELINES[key] = Baseline(
        duration=result.obs.duration,
        snapshot_times=snapshot_times,
        completed=dict(sorted(completed.items())),
        tasks=tuple(sorted(result.obs.jm.vertices)),
    )
    return _BASELINES[key]
