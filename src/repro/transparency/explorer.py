"""Exhaustive failure-point exploration on small topologies.

The explorer makes the paper's failure-transparency claim falsifiable on
graphs small enough to enumerate completely:

1.  Run the topology once with **no** faults.  Harvest the baseline output
    and, from the trace, every task's per-epoch snapshot instant and every
    checkpoint-completion instant.
2.  Enumerate failure points: for each task and each of the first
    ``boundaries`` completed epochs, kill the task just **before** and just
    **after** its local snapshot (the two sides of the epoch cut are the
    classic silent-loss / silent-duplication hazards), plus — with
    ``compound=True`` — every unordered task pair killed in overlapping
    recovery (failure-during-ongoing-recovery).
3.  Re-run the topology once per failure point through the shared
    fault-experiment engine and grade the sink output against the
    failure-free origin projection (:mod:`repro.chaos.experiment` defines
    the ``transparent | announced-degradation | violation:* | skipped:*``
    vocabulary).  Any ``violation:*`` fails the suite; a kill that never
    landed is reported ``skipped:*`` so coverage holes stay visible.

Every run is fully deterministic (sim time, seeded services), so a
violating case replays identically from its printed label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.experiment import (
    IN_TOPIC,
    OUT_TOPIC,
    Baseline,
    FaultResult,
    SoakJob,
    baseline,
    fast_chaos_config,
    grade,
    run_experiment,
)
from repro.core.output import ExactlyOnceKafkaSink
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraph, JobGraphBuilder
from repro.operators import KafkaSource

#: Kill this close to either side of a snapshot instant.  Half the failure
#: detector's resolution: close enough that the barrier is in flight,
#: far enough that float jitter cannot flip pre/post.
EPSILON = 0.02

#: Second kill of a compound pair lands this long after the first — inside
#: the first victim's recovery window (detection alone costs ~0.02-0.5s).
PAIR_STAGGER = 0.08

#: One fixed seed and checkpoint interval for every topology: the baseline
#: and every failure case must share the failure-free prefix, or snapshot
#: instants harvested from the baseline would not line up with the case
#: being killed.
SEED = 11
CHECKPOINT_INTERVAL = 0.25


@dataclass(frozen=True)
class Topology:
    """One small graph the explorer enumerates exhaustively."""

    name: str
    job: SoakJob
    operators: int  # logical operator count, for reporting


class PairJob(SoakJob):
    """The minimal 2-operator topology: src -> (keyed) -> exactly-once sink."""

    def build(self, log: DurableLog) -> JobGraph:
        parallelism = self.parallelism
        log.create_generated_topic(
            IN_TOPIC, parallelism, lambda p, off: (p, off), self.rate, self.n_records
        )
        log.create_topic(OUT_TOPIC, parallelism)
        builder = JobGraphBuilder(f"pair-p{parallelism}")
        stream = builder.source(
            "src", lambda: KafkaSource(log, IN_TOPIC), parallelism=parallelism
        )
        stream.key_by(lambda v: v[1] % parallelism).sink(
            "sink", lambda: ExactlyOnceKafkaSink(log, OUT_TOPIC)
        )
        return builder.build()


def default_topologies(rate: float = 1000.0, n_records: int = 600) -> List[Topology]:
    """The 2-, 3- and 4-operator graphs the suite explores by default."""

    def chain(depth: int, parallelism: int) -> SoakJob:
        return SoakJob(depth, parallelism, n_records, rate, state_bytes=4096, num_keys=8)

    return [
        Topology(
            "pair-p1",
            PairJob(parallelism=1, n_records=n_records, rate=rate),
            operators=2,
        ),
        Topology("chain3-p1", chain(2, 1), operators=3),
        Topology("chain4-p1", chain(3, 1), operators=4),
        Topology("chain3-p2", chain(2, 2), operators=3),
    ]


@dataclass(frozen=True)
class FailurePoint:
    """One enumerated case: named kill schedule against one topology."""

    label: str
    kills: Tuple[Tuple[float, str], ...]  # ((sim_time, task_name), ...)


@dataclass
class TransparencyReport:
    """All verdicts for one topology."""

    topo: Topology
    baseline: Baseline
    cases: List[FaultResult] = field(default_factory=list)
    #: case label (``topology/point``) -> its kill schedule, so a violating
    #: case replays from the payload alone
    points: Dict[str, FailurePoint] = field(default_factory=dict)

    def tally(self) -> Dict[str, int]:
        """Case counts per outcome class, keyed as the JSON payload is."""
        outcomes = [c.outcome for c in self.cases]
        return {
            "cases": len(outcomes),
            "transparent": outcomes.count("transparent"),
            "announced_degradation": outcomes.count("announced-degradation"),
            "skipped": sum(o.startswith("skipped") for o in outcomes),
            "violations": len(self.violations),
        }

    @property
    def violations(self) -> List[FaultResult]:
        return [c for c in self.cases if not c.ok]


def enumerate_failure_points(
    reference: Baseline,
    boundaries: int = 2,
    compound: bool = True,
) -> List[FailurePoint]:
    """Every case the suite runs for one topology.

    Singles: task x first ``boundaries`` completed epochs x {pre, post}
    snapshot.  Compounds: every unordered task pair, first victim killed
    just after its first-epoch snapshot, second victim ``PAIR_STAGGER``
    later — inside the first recovery.
    """
    points: List[FailurePoint] = []
    epoch_ids = list(reference.completed)[:boundaries]
    for task in reference.tasks:
        for cid in epoch_ids:
            snap = reference.snapshot_times.get((task, cid))
            if snap is None:
                continue
            for side, offset in (("pre", -EPSILON), ("post", EPSILON)):
                at = max(0.01, snap + offset)
                points.append(
                    FailurePoint(
                        label=f"{task}@cp{cid}-{side}",
                        kills=((at, task),),
                    )
                )
    if compound and epoch_ids:
        first = epoch_ids[0]
        for i, a in enumerate(reference.tasks):
            snap_a = reference.snapshot_times.get((a, first))
            if snap_a is None:
                continue
            for b in reference.tasks[i + 1 :]:
                t0 = max(0.01, snap_a + EPSILON)
                points.append(
                    FailurePoint(
                        label=f"pair:{a}+{b}@cp{first}",
                        kills=((t0, a), (t0 + PAIR_STAGGER, b)),
                    )
                )
    return points


def run_case(topo: Topology, point: FailurePoint, limit: float = 60.0) -> FaultResult:
    """One kill schedule against a fresh deployment of the topology."""

    def schedule_kills(jm):
        for at, victim in point.kills:
            jm.env.schedule_callback(
                at, lambda name=victim: jm.kill_task(name, force=True)
            )

    config = fast_chaos_config(seed=SEED, checkpoint_interval=CHECKPOINT_INTERVAL)
    obs = run_experiment(topo.job, schedule_kills, config, limit)
    obs.release()
    return grade(f"{topo.name}/{point.label}", obs, kills_planned=len(point.kills))


def explore_topology(
    topo: Topology,
    boundaries: int = 2,
    compound: bool = True,
    limit: float = 60.0,
) -> TransparencyReport:
    """Baseline + the full failure-point matrix for one topology."""
    reference = baseline(topo.job, SEED, CHECKPOINT_INTERVAL, limit)
    report = TransparencyReport(topo, reference)
    for point in enumerate_failure_points(reference, boundaries, compound):
        case = run_case(topo, point, limit=limit)
        report.points[case.label] = point
        report.cases.append(case)
    return report


def run_transparency_suite(
    topologies: Optional[Sequence[Topology]] = None,
    boundaries: int = 2,
    compound: bool = True,
    limit: float = 60.0,
) -> List[TransparencyReport]:
    """The whole suite: every topology's exhaustive matrix."""
    return [
        explore_topology(topo, boundaries, compound, limit)
        for topo in (topologies if topologies is not None else default_topologies())
    ]


def suite_payload(reports: Iterable[TransparencyReport]) -> dict:
    """JSON document for ``BENCH_transparency.json``: per-topology tallies
    plus every violating case spelled out (kill schedule included, so the
    case replays from the payload alone)."""
    reports = list(reports)
    tallies = [r.tally() for r in reports]
    return {
        "suite": "transparency",
        "topologies": [
            {
                "name": r.topo.name,
                "operators": r.topo.operators,
                "tasks": len(r.baseline.tasks),
                "expected_records": len(r.topo.job.expected),
                "baseline_duration_s": round(r.baseline.duration, 6),
                **tally,
            }
            for r, tally in zip(reports, tallies)
        ],
        "cases_total": sum(t["cases"] for t in tallies),
        **{
            key: sum(t[key] for t in tallies)
            for key in ("transparent", "announced_degradation", "skipped", "violations")
        },
        "violating_cases": [
            {
                "topology": r.topo.name,
                "case": r.points[c.label].label,
                "kills": [list(k) for k in r.points[c.label].kills],
                "outcome": c.outcome,
                "missing": c.missing,
                "duplicated": c.duplicated,
                "extra": c.extra,
                "detail": c.detail,
            }
            for r in reports
            for c in r.violations
        ],
    }
