"""Experiment runner: one simulated job, measured the paper's way.

The one place a simulated job is built and run.  :func:`deploy_experiment`
builds the world (broker, DFS, external service, cluster), deploys a job
graph under a given config, arms its faults, attaches throughput sampling
and schedules its kills; :meth:`ExperimentResult.run` drives it.
:func:`run_experiment` does both and returns the :class:`ExperimentResult`
every figure of Section 7 reads; the fault gates
(:func:`repro.chaos.experiment.run_experiment`) project the same result
onto their verdict record.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.external.http import ExternalService
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph
from repro.metrics.collectors import (
    LatencyPoint,
    RateSampler,
    ThroughputSample,
    ThroughputSampler,
    latency_points,
    percentile,
    recovery_time,
    throughput_dip,
)
from repro.runtime.cluster import Cluster
from repro.runtime.jobmanager import JobManager
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Collect once, then pause cyclic GC while a simulation is built and run.

    The event loop allocates tens of millions of short-lived objects whose
    refcounts go to zero immediately; generational collection buys nothing
    there but costs ~30% of wall time re-scanning the survivors (the event
    heap, logs, and stores).  Nothing in the simulator relies on collection
    *timing* — resources are released explicitly, never via finalizers — so
    pausing is schedule-neutral.  The one collection runs on entry, before
    the job exists, and sweeps what earlier runs left (mostly abandoned
    generator frames); collecting on exit would rescan the finished job the
    caller still holds and free nothing.  The previous GC state is restored
    on exit.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _source_offsets(jm: JobManager) -> int:
    """Total records ingested by the sources: the saturation-side throughput
    measure used for the overhead experiments (the output rate of windowed
    queries is too bursty to compare)."""
    total = 0
    for vertex in jm.vertices.values():
        if vertex.is_source and vertex.task is not None:
            total += getattr(vertex.task.operator, "offset", 0)
    return total


@dataclass
class ExperimentResult:
    """One deployed job, and everything a figure needs from its run."""

    config: JobConfig
    jm: JobManager
    log: DurableLog
    out_topic: str
    output_throughput: List[ThroughputSample]
    input_throughput: List[ThroughputSample]
    #: The armed chaos engine, when the run had faults.
    engine: Optional[object] = None
    _samplers: Tuple[RateSampler, ...] = field(default=(), repr=False)

    def run(self, duration: Optional[float] = None,
            limit: float = 3600.0) -> "ExperimentResult":
        """Drive the job to completion (finite input) or for ``duration``
        simulated seconds; a crash, hang or stall raises :class:`JobError`."""
        jm = self.jm
        try:
            if duration is not None:
                jm.drive(jm.env.now + duration)
            else:
                jm.run_until_done(limit=limit)
        finally:
            for sampler in self._samplers:
                sampler.stop()
        return self

    @property
    def duration(self) -> float:
        return self.jm.env.now

    @property
    def failures(self) -> List[Tuple[float, str]]:
        return self.jm.failures_injected

    @property
    def recovery_events(self) -> List[Tuple[float, str, str]]:
        return self.jm.recovery_events

    @property
    def latencies(self) -> List[LatencyPoint]:
        return latency_points(self.log, self.out_topic)

    def sustained_input_rate(self, warmup: float = 2.0) -> float:
        rates = [
            s.records_per_second
            for s in self.input_throughput
            if s.time >= warmup
        ]
        return sum(rates) / len(rates) if rates else 0.0

    def latency_percentile(self, q: float, start: float = 0.0,
                           end: float = float("inf")) -> float:
        values = [p.latency for p in self.latencies if start <= p.time <= end]
        return percentile(values, q)

    def recovery_time_after(self, failure_index: int = 0, **kwargs) -> Optional[float]:
        when = self.failures[failure_index][0]
        return recovery_time(self.latencies, when, **kwargs)

    def throughput_dip_after(self, failure_index: int = 0) -> Tuple[float, float]:
        when = self.failures[failure_index][0]
        return throughput_dip(self.output_throughput, when)

    def output_values(self) -> list:
        return [entry.value for entry in self.log.read_all(self.out_topic)]


GraphFn = Callable[[DurableLog, Optional[ExternalService]], JobGraph]


def deploy_experiment(
    graph_fn: GraphFn,
    config: JobConfig,
    faults=None,
    kills: Sequence[Tuple[float, str]] = (),
    out_topic: str = "out",
    with_external: bool = False,
    spare_nodes: int = 0,
    zones: int = 1,
) -> ExperimentResult:
    """Build the world, deploy the job, arm its faults and samplers, and
    return it not yet run (see :meth:`ExperimentResult.run`).

    ``graph_fn(log, external)`` builds the job graph, creating its input
    topics on ``log``.  ``faults`` is a :class:`repro.chaos.FaultPlan`, or a
    callable given the deployed job manager that returns a plan or arms its
    faults itself and returns None.  ``kills`` are ``(instant, task)``
    crashes.  The cluster has ``spare_nodes`` beyond the minimum, spread
    over ``zones`` availability zones.
    """
    env = Environment()
    log = DurableLog()
    external = (
        ExternalService(env, RandomStreams(config.seed)) if with_external else None
    )
    graph = graph_fn(log, external)
    cluster = Cluster(
        num_nodes=max(4, graph.total_tasks) + spare_nodes,
        slots_per_node=2,
        zones=zones,
    )
    jm = JobManager(env, graph, config, cluster=cluster, external=external)
    jm.deploy()
    plan = faults(jm) if callable(faults) else faults
    engine = None
    if plan is not None:
        from repro.chaos.engine import ChaosEngine

        engine = ChaosEngine(jm, plan)
        engine.arm()
    # Both sample at the paper's 1/3 s period (Section 7.1).
    out_sampler = ThroughputSampler(env, log, out_topic)
    in_sampler = RateSampler(env, lambda: _source_offsets(jm), "source-progress")
    for when, victim in kills:
        env.schedule_callback(when, lambda name=victim: jm.kill_task(name))
    return ExperimentResult(
        config=config,
        jm=jm,
        log=log,
        out_topic=out_topic,
        output_throughput=out_sampler.samples,
        input_throughput=in_sampler.samples,
        engine=engine,
        _samplers=(out_sampler, in_sampler),
    )


def run_experiment(
    graph_fn: GraphFn,
    config: JobConfig,
    duration: Optional[float] = None,
    kills: Sequence[Tuple[float, str]] = (),
    out_topic: str = "out",
    with_external: bool = False,
    limit: float = 3600.0,
    faults=None,
) -> ExperimentResult:
    """Deploy one experiment (:func:`deploy_experiment`) and run it to
    completion (finite input) or for ``duration``, with cyclic GC paused."""
    with _gc_paused():
        result = deploy_experiment(
            graph_fn, config, faults, kills, out_topic, with_external
        )
        return result.run(duration, limit)
