"""Node failures, standby placement (Section 6.3), and incremental
checkpoints (Section 6.4)."""

from collections import Counter

import pytest

from repro.config import FaultToleranceMode
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraphBuilder
from repro.operators import KafkaSink, KafkaSource, MapOperator
from repro.runtime.cluster import Cluster
from repro.runtime.jobmanager import JobManager
from repro.runtime.task import TaskStatus
from repro.sim.core import Environment
from repro.trace import build_timeline, chrome_trace
from repro.workloads.synthetic import synthetic_chain

from tests.runtime.helpers import make_config, sink_values


def deploy_chain(config, n_records=2000, cluster=None):
    env = Environment()
    log = DurableLog()
    graph = synthetic_chain(
        log,
        depth=4,
        parallelism=2,
        rate_per_partition=1500.0,
        total_per_partition=n_records,
        state_bytes_per_task=16384,
        out_topic="out",
    )
    jm = JobManager(env, graph, config, cluster=cluster)
    jm.deploy()
    return env, log, jm


def test_standby_anti_affinity_placement():
    config = make_config(FaultToleranceMode.CLONOS)
    _env, _log, jm = deploy_chain(config)
    for vertex in jm.vertices.values():
        assert vertex.standby is not None
        assert vertex.standby.node_id != vertex.node_id, (
            f"{vertex.name}: standby co-located with its task"
        )


def test_standby_co_location_allowed_when_disabled():
    config = make_config(FaultToleranceMode.CLONOS)
    config.clonos.standby_anti_affinity = False
    # A tiny cluster forces co-location once anti-affinity is off.
    cluster = Cluster(num_nodes=2, slots_per_node=32)
    _env, _log, jm = deploy_chain(config, cluster=cluster)
    assert any(
        vertex.standby.node_id == vertex.node_id for vertex in jm.vertices.values()
    )


def test_node_failure_kills_all_residents_and_recovers_exactly_once():
    config = make_config(FaultToleranceMode.CLONOS)
    env, log, jm = deploy_chain(config, n_records=2500)
    victim_node = jm.vertices["stage2[0]"].node_id
    expected_victims = {
        name
        for name in jm.cluster.occupants_of_node(victim_node)
        if name in jm.vertices
    }
    assert expected_victims

    env.schedule_callback(0.5, lambda: jm.kill_node(victim_node))
    jm.run_until_done(limit=600)
    killed = {name for (_t, name) in jm.failures_injected}
    assert killed == expected_victims
    origins = Counter((v[0], v[1]) for v in sink_values(log))
    assert len(origins) == 2 * 2500
    assert all(c == 1 for c in origins.values())


def test_node_failure_spares_standbys_on_other_nodes():
    config = make_config(FaultToleranceMode.CLONOS)
    env, log, jm = deploy_chain(config, n_records=2500)
    victim_node = jm.vertices["stage1[0]"].node_id
    survivors_standby = {
        vertex.name
        for vertex in jm.vertices.values()
        if vertex.node_id == victim_node and vertex.standby.node_id != victim_node
    }
    assert survivors_standby  # anti-affinity guarantees this
    env.schedule_callback(0.6, lambda: jm.kill_node(victim_node))
    jm.run_until_done(limit=600)
    # Standby-based recoveries happened (sub-second switches, not deploys).
    recovered = [name for (_t, kind, name) in jm.recovery_events if kind == "recovered"]
    assert set(recovered) >= survivors_standby


def test_failed_node_relocates_all_residents_and_recovers_exactly_once():
    # fail_node=True marks the node dead: every resident (and co-hosted
    # standby) dies with it, and every replacement must land elsewhere.
    config = make_config(FaultToleranceMode.CLONOS)
    env, log, jm = deploy_chain(config, n_records=2500)
    victim_node = jm.vertices["stage2[0]"].node_id
    residents = {
        name
        for name in jm.cluster.occupants_of_node(victim_node)
        if name in jm.vertices
    }
    assert residents
    env.schedule_callback(
        0.6, lambda: jm.kill_node(victim_node, force=True, fail_node=True)
    )
    jm.run_until_done(limit=600)
    killed = {name for (_t, name) in jm.failures_injected}
    assert killed == residents
    assert not jm.cluster.nodes[victim_node].alive
    for name in residents:
        placed = jm.cluster.node_of(name)
        assert placed is not None and placed != victim_node, (
            f"{name}: replacement placed on the dead node"
        )
        assert jm.vertices[name].node_id == placed
    origins = Counter((v[0], v[1]) for v in sink_values(log))
    assert len(origins) == 2 * 2500
    assert all(c == 1 for c in origins.values())


def test_standby_activation_when_standbys_node_has_failed():
    # The victim's standby dies with its node just before the victim is
    # killed: activation cannot take the fast path, recovery falls back to
    # the DFS checkpoint, and the ladder re-provisions a standby on a node
    # that is still alive.  Spare capacity so the reprovision is not
    # deferred for lack of a slot.
    config = make_config(FaultToleranceMode.CLONOS)
    env, log, jm = deploy_chain(
        config, n_records=2500, cluster=Cluster(num_nodes=12, slots_per_node=2)
    )
    victim = "stage2[0]"
    standby_node = jm.vertices[victim].standby.node_id
    assert standby_node != jm.vertices[victim].node_id  # anti-affinity
    env.schedule_callback(
        0.55, lambda: jm.kill_node(standby_node, force=True, fail_node=True)
    )
    env.schedule_callback(0.60, lambda: jm.kill_task(victim, force=True))
    jm.run_until_done(limit=600)
    assert any(
        kind == "standby-lost" and who == victim
        for (_t, kind, who) in jm.recovery_events
    )
    recovered = {
        who for (_t, kind, who) in jm.recovery_events if kind == "recovered"
    }
    assert victim in recovered
    standby = jm.vertices[victim].standby
    assert standby is not None and not standby.failed
    assert standby.node_id != standby_node, (
        "re-provisioned standby placed on the dead node"
    )
    origins = Counter((v[0], v[1]) for v in sink_values(log))
    assert len(origins) == 2 * 2500
    assert all(c == 1 for c in origins.values())


def test_slot_pressure_eviction_is_recorded_apart_from_a_lost_standby():
    # Ten tasks and ten standbys fill the cluster exactly.  A dead node
    # takes two standbys with it, and its tasks' restarts evict three more
    # for their slots.  Every view names the eviction for what it is.
    config = make_config(FaultToleranceMode.CLONOS)
    env, log, jm = deploy_chain(
        config, n_records=1000, cluster=Cluster(num_nodes=4, slots_per_node=5)
    )
    node = jm.vertices["stage2[0]"].node_id
    env.schedule_callback(0.3, lambda: jm.kill_node(node, force=True, fail_node=True))
    jm.run_until_done(limit=600)

    def who(events, kind):
        return sorted(subject for (_t, k, subject) in events if k == kind)

    lost, evicted = ["stage1[0]", "stage3[0]"], ["sink[0]", "src[0]", "stage2[0]"]
    assert who(jm.recovery_events, "standby-lost") == lost
    assert who(jm.recovery_events, "standby-evicted") == evicted
    trace = [(e.time, e.kind, e.subject) for e in jm.trace]
    assert who(trace, "standby-lost") == lost
    assert who(trace, "standby-evicted") == evicted
    document = chrome_trace(jm.trace, build_timeline(jm.trace))
    instants = [
        (None, e["name"], e["args"]["subject"])
        for e in document["traceEvents"] if e["ph"] == "i"
    ]
    assert who(instants, "standby-evicted") == evicted
    # The dead node hosted the plain (at-least-once) sink: nothing is lost.
    assert len({(v[0], v[1]) for v in sink_values(log)}) == 2 * 1000


def test_incremental_checkpoints_write_less_dfs_data():
    def dfs_bytes(incremental):
        config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.25)
        config.incremental_checkpoints = incremental
        env, log, jm = deploy_chain(config, n_records=4000)
        jm.run_until_done(limit=600)
        assert len(jm.checkpoints_completed) >= 3
        return jm.dfs.bytes_written

    full = dfs_bytes(False)
    incremental = dfs_bytes(True)
    assert incremental < full * 0.8
