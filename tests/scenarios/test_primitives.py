"""The new fault/workload primitives the scenario pack composes.

Unit-level checks for the poison registry, input shaping, zoned clusters,
and broker fault windows — plus end-to-end checks that the compound
primitives (zone outage, broker outage, sink determinant externalization)
recover with the guarantees the scenarios assert.
"""

import pytest

from repro.chaos import ChaosEngine, FaultPlan, PoisonRegistry
from repro.errors import ExternalSystemError, ScenarioError
from repro.external.kafka import DurableLog
from repro.runtime.cluster import Cluster
from repro.workloads.synthetic import InputBurst, rate_segments_for

from tests.chaos.helpers import (
    assert_exactly_once,
    deploy_chaos_chain,
    origin_counts,
)


# -- poison registry ---------------------------------------------------------


def test_poison_registry_crash_then_quarantine():
    reg = PoisonRegistry(quarantine_after=2)
    reg.arm("stage1[0]", 1)
    # First two encounters crash; the third quarantines; later ones skip.
    assert reg.on_record("stage1[0]", (0, 7)) == "crash"
    assert reg.on_record("stage1[0]", (0, 7)) == "crash"
    assert reg.on_record("stage1[0]", (0, 7)) == "quarantine"
    assert reg.on_record("stage1[0]", (0, 7)) == "skip"
    # Other records pass, other tasks are unaffected.
    assert reg.on_record("stage1[0]", (0, 8)) == "pass"
    assert reg.on_record("stage2[0]", (0, 7)) == "pass"
    assert reg.quarantined_count() == 1
    assert reg.quarantine_log == [("stage1[0]", (0, 7))]


# -- input shaping -----------------------------------------------------------


def test_rate_segments_realize_bursts():
    segments = rate_segments_for(
        1000.0, (InputBurst(start=0.1, duration=0.2, factor=4.0),)
    )
    assert [(pytest.approx(t), r) for (t, r) in segments] == [
        (pytest.approx(0.0), 1000.0),
        (pytest.approx(0.1), 4000.0),
        (pytest.approx(0.3), 1000.0),
    ]
    assert rate_segments_for(1000.0, ()) is None


def test_overlapping_bursts_rejected():
    with pytest.raises(ScenarioError, match="overlap"):
        rate_segments_for(
            1000.0,
            (
                InputBurst(start=0.1, duration=0.3, factor=2.0),
                InputBurst(start=0.2, duration=0.1, factor=3.0),
            ),
        )


def test_shaped_topic_same_values_different_times():
    """A burst reshapes arrival *times* only: record identity (and thus the
    exactly-once projection) matches the flat-rate topic."""
    flat_log, shaped_log = DurableLog(), DurableLog()
    gen = lambda p, o: (p, o)  # noqa: E731
    flat_log.create_generated_topic("t", 1, gen, 1000.0, total_per_partition=100)
    shaped_log.create_shaped_generated_topic(
        "t", 1, gen, 1000.0, total_per_partition=100,
        rate_segments=[(0.0, 1000.0), (0.02, 4000.0), (0.05, 1000.0)],
    )
    flat = flat_log.partition("t", 0)
    shaped = shaped_log.partition("t", 0)
    # Offsets inside/after the 4x window arrive earlier on the shaped topic...
    assert shaped.next_arrival_after(80) < flat.next_arrival_after(80)
    # ...while the generated sequence itself is untouched (same gen_fn).
    flat_values = [v for (_o, _t, v) in flat.read(0, 100)]
    shaped_values = [v for (_o, _t, v) in shaped.read(0, 100)]
    assert flat_values == shaped_values == [(0, o) for o in range(100)]


# -- zoned cluster -----------------------------------------------------------


def test_cluster_zones_round_robin_and_queries():
    cluster = Cluster(6, slots_per_node=2, zones=2)
    assert sorted(cluster.live_zones()) == [0, 1]
    zone0 = [n.node_id for n in cluster.nodes_in_zone(0)]
    zone1 = [n.node_id for n in cluster.nodes_in_zone(1)]
    assert sorted(zone0 + zone1) == list(range(6))
    assert abs(len(zone0) - len(zone1)) <= 1


def test_cluster_rejects_more_zones_than_nodes():
    from repro.errors import JobError

    with pytest.raises(JobError):
        Cluster(2, zones=3)


def test_zone_outage_recovers_with_announcement_at_worst():
    from repro.chaos.experiment import OUT_TOPIC, SoakJob, deploy, fast_chaos_config

    env, log, jm = deploy(
        SoakJob(zones=2, spare_nodes=4), fast_chaos_config(seed=3)
    )
    plan = FaultPlan(seed=3).add(0.25, "zone_outage", target="0", duration=0.5)
    engine = ChaosEngine(jm, plan)
    engine.arm()
    jm.run_until_done(limit=600)
    assert engine.applied, engine.skipped
    counts = origin_counts(log, topic=OUT_TOPIC)
    expected = {(p, o) for p in range(2) for o in range(1200)}
    missing = [pair for pair in expected if counts[pair] == 0]
    degradations = [e for e in jm.recovery_events if e[1].startswith("degraded:")]
    # Mass failure may exceed local recovery, but never silently:
    assert not missing
    if any(c > 1 for c in counts.values()):
        assert degradations


# -- broker fault windows ----------------------------------------------------


def test_broker_outage_refuses_then_heals():
    log = DurableLog()
    log.create_topic("out")
    log.set_outage(until=1.0)
    with pytest.raises(ExternalSystemError, match="outage"):
        log.check_available(0.5, "append")
    assert log.failed_ops == 1
    assert log.retry_at(0.5) >= 1.0
    log.check_available(1.5, "append")  # healed: no raise


def test_broker_brownout_is_seeded_and_partial():
    log = DurableLog()
    log.set_brownout(until=1.0, failure_rate=0.5, seed=42)
    outcomes = []
    for i in range(50):
        try:
            log.check_available(0.5, "append")
            outcomes.append(True)
        except ExternalSystemError:
            outcomes.append(False)
    assert any(outcomes) and not all(outcomes)
    # Seeded: an identical log replays the same refusal pattern.
    log2 = DurableLog()
    log2.set_brownout(until=1.0, failure_rate=0.5, seed=42)
    outcomes2 = []
    for i in range(50):
        try:
            log2.check_available(0.5, "append")
            outcomes2.append(True)
        except ExternalSystemError:
            outcomes2.append(False)
    assert outcomes == outcomes2


def test_broker_outage_end_to_end_exactly_once():
    """Sinks crash on the refused append, recover, and the Section 5.5
    external determinant store keeps the re-appended output exactly-once."""
    env, log, jm = deploy_chaos_chain()
    plan = FaultPlan(seed=5).add(0.2, "broker_outage", duration=0.3)
    ChaosEngine(jm, plan).arm()
    jm.run_until_done(limit=600)
    assert any(k == "external-crash" for (_t, k, _w) in jm.recovery_events)
    assert_exactly_once(log, 2, 1200)


def test_sink_determinants_are_externalized():
    """The Section 5.5 contract: the external system stores the sink's
    causal-log bundle alongside its output, so a recovering sink replays
    byte-identically even though no downstream task holds determinants."""
    env, log, jm = deploy_chaos_chain()
    plan = FaultPlan(seed=2).add(0.25, "task_kill", target="sink[0]")
    ChaosEngine(jm, plan).arm()
    jm.run_until_done(limit=600)
    assert log.sink_bundles, "sinks should externalize determinant bundles"
    assert set(log.sink_bundles) <= {"sink[0]", "sink[1]"}
    assert_exactly_once(log, 2, 1200)


# -- compute slowdown --------------------------------------------------------


def test_compute_slowdown_applies_and_restores():
    env, log, jm = deploy_chaos_chain()
    victim = jm.vertices["stage1[1]"]
    node = victim.node_id
    plan = FaultPlan().add(0.1, "compute_slowdown", target="stage1[1]",
                           factor=6.0, duration=0.2)
    ChaosEngine(jm, plan).arm()
    seen = {}
    env.schedule_callback(
        0.15, lambda: seen.setdefault("during", victim.task.compute_slowdown)
    )
    env.schedule_callback(
        0.35, lambda: seen.setdefault("after", victim.task.compute_slowdown)
    )
    jm.run_until_done(limit=600)
    assert seen["during"] == 6.0
    assert seen["after"] == 1.0
    assert node not in jm.node_slowdowns
    assert_exactly_once(log, 2, 1200)
