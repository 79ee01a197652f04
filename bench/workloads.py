"""The four benchmark workloads and their frozen parameters.

Each workload is a list of *arms* (one ``run_experiment`` call each); a
*repetition* runs every arm once.  Host time is charged only for the
``run_experiment`` calls; reducing a result to its summary (latencies, sink
digest) happens outside the timed region.

The seed reaches the program only as ``JobConfig.seed`` and through the
generated inputs: the Nexmark generator seed, and for the chain the arrival
rate (+-0.5 %) and the id space of the records.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import FaultToleranceMode, JobConfig
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.figures import experiment_config, nexmark_graph_fn
from repro.metrics.collectors import percentile, recovery_time
from repro.workloads.synthetic import synthetic_chain

from bench import verify

ROLLBACK = FaultToleranceMode.GLOBAL_ROLLBACK
CLONOS = FaultToleranceMode.CLONOS


@dataclass(frozen=True)
class Arm:
    """One simulated job of a repetition."""

    label: str
    graph_fn: Callable
    config: JobConfig
    records_in: int
    kills: Tuple[Tuple[float, str], ...] = ()


@dataclass
class ArmSummary:
    label: str
    records_in: int
    cpu_s: float
    sim_duration: float
    latency_p50: float
    latency_p99: float
    latency_samples: int
    #: sha256 over the sink topic's (append time, entry) pairs: sim timing
    #: *and* content, so "identical digest" means an identical execution.
    digest: str
    #: Simulated instants the kills actually landed at.
    failure_times: Tuple[float, ...]
    #: ``collectors.recovery_time`` from the last kill (None without kills).
    recovery_time: Optional[float]
    #: Sink values, kept only for the repetition that is verified.
    sink_values: Optional[list] = None


@dataclass
class Repetition:
    arms: List[ArmSummary]

    @property
    def cpu_s(self) -> float:
        return sum(arm.cpu_s for arm in self.arms)

    @property
    def records_in(self) -> int:
        return sum(arm.records_in for arm in self.arms)

    def arm(self, label: str) -> ArmSummary:
        return next(arm for arm in self.arms if arm.label == label)

    def signature(self) -> Tuple:
        """Everything simulated about the repetition; must repeat exactly."""
        return tuple(
            (a.label, a.digest, a.sim_duration, a.latency_p50, a.latency_p99,
             a.failure_times, a.recovery_time)
            for a in self.arms
        )


def _summarize(arm: Arm, result: ExperimentResult, cpu_s: float,
               keep_output: bool) -> ArmSummary:
    entries = result.log.read_all_with_times(result.out_topic)
    digest = hashlib.sha256()
    for when, entry in entries:
        digest.update(repr((when, entry)).encode())
    latencies = [point.latency for point in result.latencies]
    failure_times = tuple(when for when, _victim in result.failures)
    recovered = (
        recovery_time(result.latencies, failure_times[-1]) if failure_times else None
    )
    return ArmSummary(
        label=arm.label,
        records_in=arm.records_in,
        cpu_s=cpu_s,
        sim_duration=result.duration,
        latency_p50=percentile(latencies, 50),
        latency_p99=percentile(latencies, 99),
        latency_samples=len(latencies),
        digest=digest.hexdigest(),
        failure_times=failure_times,
        recovery_time=recovered,
        sink_values=result.output_values() if keep_output else None,
    )


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: metric name -> (value, unit); sample counts ride along in ``info``.
Metrics = Dict[str, Tuple[float, str]]


class Workload:
    """Base: subclasses define the arms, the sim metrics and the check."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.arms: List[Arm] = []

    def run(self, keep_output: bool = False,
            on_result: Optional[Callable[[Arm, ExperimentResult], None]] = None
            ) -> Repetition:
        """One repetition.  ``on_result`` sees each finished job before it
        is dropped (the traced run harvests its counters there)."""
        summaries = []
        for arm in self.arms:
            started = time.process_time()
            result = run_experiment(
                arm.graph_fn, arm.config, kills=arm.kills, limit=3600
            )
            cpu_s = time.process_time() - started
            if on_result is not None:
                on_result(arm, result)
            summaries.append(_summarize(arm, result, cpu_s, keep_output))
        return Repetition(summaries)

    def sim_metrics(self, rep: Repetition) -> Tuple[Metrics, Dict[str, Any]]:
        raise NotImplementedError

    def check(self, rep: Repetition) -> Tuple[verify.Verdict, Dict[str, Any]]:
        raise NotImplementedError

    def _config(self, mode: FaultToleranceMode, dsd: Optional[int],
                checkpoint_interval: float) -> JobConfig:
        config = experiment_config(mode, dsd, checkpoint_interval)
        config.seed = self.seed
        return config


class NexmarkSaturated(Workload):
    name = "nexmark_saturated"
    why = (
        "closed backlog-bound Nexmark Q1/Q3/Q8/Q12 x {rollback, DSD=1, Full}: "
        "data plane (generator, operators, writer, serialization); yields Fig. 5"
    )

    QUERIES = ("Q1", "Q3", "Q8", "Q12")
    MODES = (("rollback", ROLLBACK, None), ("dsd1", CLONOS, 1), ("full", CLONOS, None))
    PARALLELISM = 2
    RATE = 100_000.0
    CHECKPOINT_INTERVAL = 1.0

    def __init__(self, seed: int, events_per_partition: int = 7000):
        super().__init__(seed)
        self.events = events_per_partition
        for query in self.QUERIES:
            graph_fn = nexmark_graph_fn(
                query, self.PARALLELISM, self.events, self.RATE, seed=seed
            )
            for label, mode, dsd in self.MODES:
                self.arms.append(
                    Arm(
                        f"{query}/{label}",
                        graph_fn,
                        self._config(mode, dsd, self.CHECKPOINT_INTERVAL),
                        self.events * self.PARALLELISM,
                    )
                )

    def sim_metrics(self, rep):
        def rate(query, label):
            arm = rep.arm(f"{query}/{label}")
            return arm.records_in / arm.sim_duration

        # Latency is read off Q1 only: the windowed queries emit from timers,
        # whose results carry no arrival time to measure from.
        q1 = rep.arm("Q1/full")
        metrics = {
            "sim_throughput_rps": (_geomean([rate(q, "full") for q in self.QUERIES]), "1/s"),
            "sim_latency_p50_ms": (q1.latency_p50 * 1e3, "ms"),
            "sim_latency_p99_ms": (q1.latency_p99 * 1e3, "ms"),
            "sim_rel_throughput_dsd1": (
                _geomean([rate(q, "dsd1") / rate(q, "rollback") for q in self.QUERIES]),
                "ratio",
            ),
            "sim_rel_throughput_full": (
                _geomean([rate(q, "full") / rate(q, "rollback") for q in self.QUERIES]),
                "ratio",
            ),
        }
        return metrics, {"latency_samples": q1.latency_samples}

    def check(self, rep):
        total = verify.Verdict(0)
        sink_records = {}
        for query in self.QUERIES:
            expected = verify.nexmark_expected(
                query, self.seed, self.RATE, self.PARALLELISM, self.events
            )
            for label, _mode, _dsd in self.MODES:
                arm = rep.arm(f"{query}/{label}")
                total += verify.nexmark_check(query, arm.sink_values, expected)
                sink_records[arm.label] = len(arm.sink_values)
        return total, {"sink_records": sink_records}


class ChainWorkload(Workload):
    """``synthetic_chain(depth=5, parallelism=5, nondeterministic=True)``
    behind an open-loop paced topic; the subclasses pick mode, rate, kills."""

    DEPTH = 5
    PARALLELISM = 5
    STATE_BYTES = 100 * 1024
    #: (label, mode); every Clonos arm runs DSD=Full.
    MODES: Tuple[Tuple[str, FaultToleranceMode], ...] = ()
    #: The arm whose latency/throughput is reported.
    PRIMARY = ""
    RATE = 700.0
    CHECKPOINT_INTERVAL = 0.5
    KILLS: Tuple[Tuple[float, str], ...] = ()

    def __init__(self, seed: int, records_per_partition: int):
        super().__init__(seed)
        self.total = records_per_partition
        shape = random.Random(seed)
        #: Arrival schedule and id space of the generated topic — fixed by
        #: the seed, independent of how fast the system drains it.
        self.rate = self.RATE * (1.0 + 0.005 * shape.uniform(-1.0, 1.0))
        self.base = shape.randrange(1_000_000)
        for label, mode in self.MODES:
            self.arms.append(
                Arm(
                    label,
                    self._graph_fn,
                    self._config(mode, None, self.CHECKPOINT_INTERVAL),
                    self.total * self.PARALLELISM,
                    self.KILLS,
                )
            )

    def _graph_fn(self, log, external):
        base = self.base
        log.create_generated_topic(
            "synthetic-in",
            self.PARALLELISM,
            lambda partition, offset: (partition, base + offset),
            self.rate,
            self.total,
        )
        return synthetic_chain(
            log,
            depth=self.DEPTH,
            parallelism=self.PARALLELISM,
            rate_per_partition=self.rate,
            total_per_partition=self.total,
            state_bytes_per_task=self.STATE_BYTES,
            nondeterministic=True,
            out_topic="out",
        )

    def sim_metrics(self, rep):
        arm = rep.arm(self.PRIMARY)
        metrics = {
            "sim_throughput_rps": (arm.records_in / arm.sim_duration, "1/s"),
            "sim_latency_p50_ms": (arm.latency_p50 * 1e3, "ms"),
            "sim_latency_p99_ms": (arm.latency_p99 * 1e3, "ms"),
        }
        return metrics, {"latency_samples": arm.latency_samples}

    def check(self, rep):
        expected = verify.chain_expected(self.PARALLELISM, self.total, self.base)
        total = verify.Verdict(0)
        info: Dict[str, Any] = {}
        for arm, summary in zip(self.arms, rep.arms):
            verdict = verify.compare_multisets(
                verify.chain_origins(summary.sink_values), expected
            )
            if arm.kills and arm.config.mode is ROLLBACK:
                verdict, duplicates = verify.ignoring_duplicates(verdict)
                info["rollback_duplicates"] = duplicates
            total += verdict
        return total, info


class ChainPacedRollback(ChainWorkload):
    name = "chain_paced_rollback"
    why = (
        "open-loop 700 rec/s/partition chain under global rollback: one wake per "
        "arrival, so kernel, source and task loop dominate; causal/in-flight logs off"
    )
    MODES = (("rollback", ROLLBACK),)
    PRIMARY = "rollback"

    def __init__(self, seed: int, records_per_partition: int = 5000):
        super().__init__(seed, records_per_partition)


class ChainPacedClonos(ChainWorkload):
    name = "chain_paced_clonos"
    why = (
        "the same chain and rate under Clonos DSD=Full: write side of the causal "
        "log (append, delta, merge), in-flight log append and fingerprints"
    )
    MODES = (("clonos", CLONOS),)
    PRIMARY = "clonos"

    def __init__(self, seed: int, records_per_partition: int = 950):
        super().__init__(seed, records_per_partition)


class ChainRecovery(ChainWorkload):
    name = "chain_recovery"
    why = (
        "three staggered kills on the chain, Clonos vs rollback: the read side "
        "(determinant fetch, replay, snapshot load, standby, dedup); yields Fig. 6"
    )
    MODES = (("clonos", CLONOS), ("rollback", ROLLBACK))
    PRIMARY = "clonos"
    #: Deliberately not a divisor of the 20 ms flush interval: at 100 rec/s
    #: arrivals lock phase with the flusher and p50 jumps between two values
    #: from seed to seed.
    RATE = 113.0
    CHECKPOINT_INTERVAL = 1.0
    KILLS = ((1.5, "stage1[0]"), (3.0, "stage2[0]"), (4.5, "stage3[0]"))

    def __init__(self, seed: int, records_per_partition: int = 700):
        super().__init__(seed, records_per_partition)

    def sim_metrics(self, rep):
        metrics, info = super().sim_metrics(rep)
        clonos = rep.arm("clonos").recovery_time
        rollback = rep.arm("rollback").recovery_time
        metrics["sim_recovery_time_s"] = (clonos, "s")
        metrics["sim_recovery_speedup_vs_rollback"] = (rollback / clonos, "ratio")
        info["rollback_recovery_time_s"] = rollback
        return metrics, info


WORKLOADS = {
    cls.name: cls
    for cls in (NexmarkSaturated, ChainPacedRollback, ChainPacedClonos, ChainRecovery)
}

#: Tiny parameters for the smoke tests (seconds, not minutes).
TINY = {
    "nexmark_saturated": {"events_per_partition": 400},
    "chain_paced_rollback": {"records_per_partition": 300},
    "chain_paced_clonos": {"records_per_partition": 150},
    "chain_recovery": {},  # the kill schedule fixes how long it must run
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, **(TINY[name] if tiny else {}))
