"""The named production incidents the CI matrix runs.

Every scenario plays against the default workload (depth 3, parallelism 2,
1200 records/partition at 2000 rec/s: a ~0.6 s failure-free run) unless it
says otherwise, and every verdict is machine-checked — see
:class:`~repro.scenarios.model.VerdictSpec`.  Timings place faults inside
the ingest window so recovery overlaps live traffic.

The incident taxonomy (what production outage each scenario reproduces) is
documented per scenario in DESIGN.md §9 and summarized in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List

from repro.errors import ScenarioError
from repro.scenarios.model import (
    FaultEntry,
    Phase,
    Scenario,
    VerdictSpec,
    WorkloadSpec,
)
from repro.workloads.synthetic import HotKeySkew, InputBurst, WorkloadShaping

#: Recovery budget (simulated seconds) generous enough for the escalation
#: ladder's reprovision path but far below the run limit, so a stuck
#: recovery fails the scenario instead of just looking slow.
_RECOVERY_BUDGET = 10.0

_STRICT = VerdictSpec(
    exactly_once=True,
    allow_announced_divergence=False,
    max_recovery_s=_RECOVERY_BUDGET,
    require_watchdog_ok=True,
)
_ANNOUNCED = VerdictSpec(
    exactly_once=True,
    allow_announced_divergence=True,
    max_recovery_s=_RECOVERY_BUDGET,
    require_watchdog_ok=True,
)


SCENARIOS: List[Scenario] = [
    Scenario(
        name="backpressure_storm",
        description=(
            "A 4x input burst overloads the chain while a mid-pipeline task "
            "dies at the burst's peak: recovery must replay through live "
            "backpressure without losing or duplicating output."
        ),
        phases=(
            Phase(
                name="kill-at-peak",
                at=0.2,
                faults=(FaultEntry(kind="task_kill", target="stage2[0]"),),
            ),
        ),
        workload=WorkloadSpec(
            shaping=WorkloadShaping(
                bursts=(InputBurst(start=0.1, duration=0.2, factor=4.0),)
            )
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="poison_pill",
        description=(
            "One input record deterministically crashes a stage operator on "
            "every incarnation; the crash loop must converge by quarantining "
            "the pill and announcing the (single-record) degradation."
        ),
        phases=(
            Phase(
                name="poison",
                at=0.15,
                faults=(FaultEntry(kind="poison_pill", target="stage1*", count=1),),
            ),
        ),
        verdict=_ANNOUNCED,
    ),
    Scenario(
        name="hot_key_straggler",
        description=(
            "Half the mid-stream records collapse onto one hot key while the "
            "node hosting the hot stage runs 6x slower (straggler): skew plus "
            "a straggler must degrade throughput, never correctness."
        ),
        phases=(
            Phase(
                name="straggle",
                at=0.1,
                faults=(
                    FaultEntry(
                        kind="compute_slowdown",
                        target="stage1[1]",
                        factor=6.0,
                        duration=0.3,
                    ),
                ),
            ),
        ),
        workload=WorkloadSpec(
            shaping=WorkloadShaping(
                hot_keys=HotKeySkew(
                    start_offset=200, end_offset=800, fraction=0.5
                )
            )
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="rolling_restart",
        description=(
            "An operator rolls the job one task at a time, source to sink, "
            "while traffic flows — four staggered kills, each recovering "
            "before the next lands (a longer 1.2s ingest window keeps "
            "traffic live across the whole roll)."
        ),
        phases=(
            Phase(
                name="roll",
                at=0.15,
                faults=(
                    FaultEntry(kind="task_kill", target="src[0]", at=0.0),
                    FaultEntry(kind="task_kill", target="stage1[0]", at=0.25),
                    FaultEntry(kind="task_kill", target="stage2[0]", at=0.5),
                    FaultEntry(kind="task_kill", target="sink[0]", at=0.75),
                ),
            ),
        ),
        workload=WorkloadSpec(n_records=2400),
        verdict=_STRICT,
    ),
    Scenario(
        name="zone_failover",
        description=(
            "An availability zone drops (half the cluster at once) and "
            "revives half a second later: a compound mass failure that may "
            "exceed local recovery — divergence must be announced, never "
            "silent, and nothing may be lost."
        ),
        phases=(
            Phase(
                name="zone-down",
                at=0.25,
                faults=(
                    FaultEntry(kind="zone_outage", target="0", duration=0.5),
                ),
            ),
        ),
        workload=WorkloadSpec(zones=2, spare_nodes=4),
        verdict=_ANNOUNCED,
    ),
    Scenario(
        name="broker_blackout",
        description=(
            "The output broker refuses every operation for 0.3s: sinks crash "
            "on append, recover, and the Section 5.5 determinant store must "
            "keep the re-appended output exactly-once."
        ),
        phases=(
            Phase(
                name="outage",
                at=0.2,
                faults=(FaultEntry(kind="broker_outage", duration=0.3),),
            ),
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="broker_brownout_compound",
        description=(
            "A flaky broker (30% failures), a node crash, and a truncated "
            "determinant replica all within one window — the compound "
            "incident: any divergence must be announced."
        ),
        phases=(
            Phase(
                name="brownout",
                at=0.15,
                faults=(
                    FaultEntry(kind="broker_brownout", duration=0.4, rate=0.3),
                ),
            ),
            Phase(
                name="node-kill",
                at=0.3,
                faults=(FaultEntry(kind="node_crash", target="stage1[0]"),),
            ),
            Phase(
                name="corrupt-and-kill",
                at=0.35,
                faults=(
                    FaultEntry(kind="determinant_truncation", target="stage2[0]"),
                    FaultEntry(kind="task_kill", target="stage2[0]", at=0.05),
                ),
            ),
        ),
        verdict=_ANNOUNCED,
    ),
    Scenario(
        name="crashloop",
        description=(
            "The same task dies four times in rapid succession (a crash-"
            "looping deployment): every incarnation must recover exactly-"
            "once, standby reprovisioning included."
        ),
        phases=(
            Phase(
                name="loop",
                at=0.12,
                faults=(FaultEntry(kind="task_kill", target="stage1[1]"),),
                repeat=4,
                every=0.12,
            ),
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="recovery_during_recovery",
        description=(
            "A second failure lands while the first is still recovering "
            "(connected tasks, 40ms apart): the coordinator must supersede "
            "or serialize, never deadlock — escalating to an announced "
            "global rollback is acceptable, silence is not."
        ),
        phases=(
            Phase(
                name="first",
                at=0.2,
                faults=(FaultEntry(kind="task_kill", target="stage1[0]"),),
            ),
            Phase(
                name="second-mid-recovery",
                at=0.24,
                faults=(FaultEntry(kind="task_kill", target="stage2[0]"),),
            ),
        ),
        verdict=_ANNOUNCED,
    ),
    Scenario(
        name="checkpoint_pressure",
        description=(
            "The checkpoint store (DFS) runs 6x slow while a task dies: "
            "recovery must proceed from whatever epoch is stable without "
            "stalling behind the brownout."
        ),
        phases=(
            Phase(
                name="dfs-slow",
                at=0.15,
                faults=(
                    FaultEntry(kind="dfs_brownout", duration=0.4, factor=6.0),
                ),
            ),
            Phase(
                name="kill",
                at=0.3,
                faults=(FaultEntry(kind="task_kill", target="stage2[1]"),),
            ),
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="control_plane_flap",
        description=(
            "The control plane drops a quarter of its RPCs (and duplicates "
            "some) exactly while a failure needs coordinating: recovery "
            "control traffic must retry through the flap."
        ),
        phases=(
            Phase(
                name="flap",
                at=0.2,
                faults=(
                    FaultEntry(
                        kind="rpc_chaos", duration=0.3, rate=0.25, dup_rate=0.1
                    ),
                ),
            ),
            Phase(
                name="kill-in-flap",
                at=0.3,
                faults=(FaultEntry(kind="task_kill", target="stage1[0]"),),
            ),
        ),
        verdict=_STRICT,
    ),
    Scenario(
        name="network_partition_flap",
        description=(
            "A data link partitions for 200ms, then another link drops two "
            "buffers: transient network faults must be absorbed by "
            "retransmission/backpressure with no recovery at all — or "
            "recover exactly-once if detection fires."
        ),
        phases=(
            Phase(
                name="partition",
                at=0.2,
                faults=(
                    FaultEntry(
                        kind="link_partition",
                        target="src[0]->stage1*",
                        duration=0.2,
                    ),
                ),
            ),
            Phase(
                name="loss",
                at=0.45,
                faults=(
                    FaultEntry(
                        kind="link_loss", target="stage1*->stage2*", count=2
                    ),
                ),
            ),
        ),
        verdict=_STRICT,
    ),
]


def scenario_by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise ScenarioError(f"unknown scenario {name!r}")

