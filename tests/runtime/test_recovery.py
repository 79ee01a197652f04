"""Failure and recovery tests: the heart of the reproduction.

The assertions encode the guarantees of Section 5.4 / Table 1:

* Clonos: exactly-once, even for nondeterministic operators.
* Divergent local replay (DSD=0 spirit): at-least-once (duplicates).
* Gap recovery: at-most-once (loss).
* SEEP-style receiver dedup: exactly-once iff deterministic.
* Global rollback: exactly-once state, far slower recovery.
"""

from collections import Counter

import pytest

from repro.config import FaultToleranceMode
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraphBuilder
from repro.operators import KafkaSink, KafkaSource, MapOperator, Operator, TransactionalKafkaSink
from repro.runtime.jobmanager import JobManager
from repro.sim.core import Environment
from repro.trace.timeline import build_timeline

from tests.runtime.helpers import fast_cost, make_config, sink_values


class TagOperator(Operator):
    """Deterministic: tags each input with a running per-task counter."""

    def __init__(self):
        self._seen = 0

    def process(self, record, ctx):
        self._seen += 1
        ctx.collect(("tag", record.value))

    def snapshot(self):
        return self._seen

    def restore(self, state):
        self._seen = state or 0


class NondetFanoutOperator(Operator):
    """Nondeterministic: emits 1 or 2 copies per input, decided by the
    (causal) RNG service.  Re-execution draws differently unless the seed
    determinants are replayed."""

    deterministic = False

    def process(self, record, ctx):
        copies = 1 + int(ctx.services.random() * 2)
        for copy_index in range(copies):
            ctx.collect((record.value, copy_index, copies))


class StampOperator(Operator):
    """Nondeterministic: stamps each record with processing time via the
    Timestamp service."""

    deterministic = False

    def process(self, record, ctx):
        ctx.collect((record.value, ctx.processing_time()))


def run_job(
    mode,
    mid_factory,
    n_records=3000,
    rate=2000.0,
    kill=(),
    kill_at=0.7,
    checkpoint_interval=0.3,
    sink_factory=None,
    dsd=None,
    seed=7,
):
    """Build source->mid->sink, optionally killing tasks, run to completion."""
    env = Environment()
    log = DurableLog()
    log.create_generated_topic(
        "in", 1, lambda p, off: off, rate, total_per_partition=n_records
    )
    log.create_topic("out", 1)
    config = make_config(mode, checkpoint_interval=checkpoint_interval)
    config.clonos.determinant_sharing_depth = dsd
    config.seed = seed
    builder = JobGraphBuilder("recovery-test")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    mid = stream.key_by(lambda v: v % 7).process("mid", mid_factory)
    sink_f = sink_factory or (lambda: KafkaSink(log, "out"))
    mid.key_by(lambda v: 0).sink("sink", sink_f)
    graph = builder.build()
    jm = JobManager(env, graph, config)
    jm.deploy()
    for i, victim in enumerate(kill):
        env.schedule_callback(
            kill_at + i * 0.0, lambda name=victim: jm.kill_task(name)
        )
    jm.run_until_done(limit=600)
    return jm, log


def run_job_staggered(mode, mid_factory, kills, **kwargs):
    """kills: list of (time, task_name)."""
    env = Environment()
    log = DurableLog()
    n_records = kwargs.pop("n_records", 3000)
    rate = kwargs.pop("rate", 2000.0)
    log.create_generated_topic(
        "in", 1, lambda p, off: off, rate, total_per_partition=n_records
    )
    log.create_topic("out", 1)
    config = make_config(mode, checkpoint_interval=kwargs.pop("checkpoint_interval", 0.3))
    builder = JobGraphBuilder("recovery-test")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    mid = stream.key_by(lambda v: v % 7).process("mid", mid_factory)
    mid.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
    jm = JobManager(env, builder.build(), config)
    jm.deploy()
    for when, victim in kills:
        env.schedule_callback(when, lambda name=victim: jm.kill_task(name))
    jm.run_until_done(limit=600)
    return jm, log


# ---------------------------------------------------------------------------
# Clonos: exactly-once under failures
# ---------------------------------------------------------------------------


def test_clonos_middle_failure_deterministic_exactly_once():
    jm, log = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["mid[0]"])
    values = sink_values(log)
    assert Counter(values) == Counter(("tag", i) for i in range(3000))
    assert jm.failures_injected


def test_clonos_failure_free_baseline_content():
    _jm, log_with = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["mid[0]"])
    _jm2, log_without = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=[])
    # Deterministic pipeline: the output content (per-partition order aside)
    # is identical with and without the failure.
    assert Counter(sink_values(log_with)) == Counter(sink_values(log_without))


def test_clonos_nondeterministic_fanout_exactly_once():
    jm, log = run_job(FaultToleranceMode.CLONOS, NondetFanoutOperator, kill=["mid[0]"])
    values = sink_values(log)
    by_input = {}
    for input_id, copy_index, copies in values:
        by_input.setdefault(input_id, []).append((copy_index, copies))
    assert set(by_input) == set(range(3000))  # no loss
    for input_id, entries in by_input.items():
        copies = entries[0][1]
        # Exactly `copies` outputs, one per copy index, all agreeing on the
        # draw: no duplicates, no contradictory regeneration.
        assert sorted(e[0] for e in entries) == list(range(copies)), (
            f"input {input_id}: inconsistent copies {entries}"
        )


def test_clonos_timestamp_service_consistent():
    jm, log = run_job(FaultToleranceMode.CLONOS, StampOperator, kill=["mid[0]"])
    values = sink_values(log)
    stamps = {}
    for input_id, stamp in values:
        stamps.setdefault(input_id, set()).add(stamp)
    assert set(stamps) == set(range(3000))
    # Exactly one timestamp per record: nothing was applied twice with
    # different wall-clock observations.
    assert all(len(s) == 1 for s in stamps.values())


def test_clonos_source_failure_exactly_once():
    jm, log = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["src[0]"])
    assert Counter(sink_values(log)) == Counter(("tag", i) for i in range(3000))


def test_clonos_concurrent_chain_failures_exactly_once():
    jm, log = run_job(
        FaultToleranceMode.CLONOS, TagOperator, kill=["mid[0]", "sink[0]"]
    )
    # sink[0] failed: its Kafka appends of the current epoch are replayed
    # (output-commit is Section 5.5's separate problem), so the output may
    # hold duplicates — but never losses, and the *state path* is exact.
    values = sink_values(log)
    assert set(values) == {("tag", i) for i in range(3000)}


def test_clonos_staggered_failures_exactly_once():
    jm, log = run_job_staggered(
        FaultToleranceMode.CLONOS,
        TagOperator,
        kills=[(0.5, "mid[0]"), (0.9, "src[0]")],
    )
    assert Counter(sink_values(log)) == Counter(("tag", i) for i in range(3000))
    assert len(jm.failures_injected) == 2


def test_clonos_second_failure_of_same_task():
    jm, log = run_job_staggered(
        FaultToleranceMode.CLONOS,
        TagOperator,
        kills=[(0.5, "mid[0]"), (1.0, "mid[0]")],
    )
    assert Counter(sink_values(log)) == Counter(("tag", i) for i in range(3000))


# ---------------------------------------------------------------------------
# Baselines: the guarantee spectrum (Section 5.4, Table 1)
# ---------------------------------------------------------------------------


def test_divergent_replay_is_at_least_once():
    jm, log = run_job(FaultToleranceMode.DIVERGENT, TagOperator, kill=["mid[0]"])
    counts = Counter(v for _tag, v in sink_values(log))
    assert set(counts) == set(range(3000))  # nothing lost
    assert any(c > 1 for c in counts.values())  # replay duplicated records


def test_gap_recovery_is_at_most_once():
    jm, log = run_job(FaultToleranceMode.GAP_RECOVERY, TagOperator, kill=["mid[0]"])
    counts = Counter(v for _tag, v in sink_values(log))
    assert all(c == 1 for c in counts.values())  # no duplicates
    assert len(counts) < 3000  # in-flight records were lost


def test_seep_exactly_once_for_deterministic_operators():
    jm, log = run_job(FaultToleranceMode.SEEP, TagOperator, kill=["mid[0]"])
    counts = Counter(v for _tag, v in sink_values(log))
    assert set(counts) == set(range(3000))
    assert all(c == 1 for c in counts.values())


def test_seep_breaks_under_nondeterminism():
    jm, log = run_job(
        FaultToleranceMode.SEEP, NondetFanoutOperator, kill=["mid[0]"]
    )
    values = sink_values(log)
    by_input = {}
    for input_id, copy_index, copies in values:
        by_input.setdefault(input_id, []).append((copy_index, copies))
    violations = 0
    for input_id in range(3000):
        entries = by_input.get(input_id)
        if entries is None:
            violations += 1  # lost
            continue
        copies = entries[0][1]
        if sorted(e[0] for e in entries) != list(range(copies)):
            violations += 1  # duplicate or contradictory regeneration
    assert violations > 0, (
        "SEEP-style count dedup should misalign when the operator's output "
        "cardinality is nondeterministic"
    )


def test_global_rollback_exactly_once_with_transactional_sink():
    jm, log = run_job(
        FaultToleranceMode.GLOBAL_ROLLBACK,
        TagOperator,
        kill=["mid[0]"],
        sink_factory=None,
    )
    # Plain sink + global restart: the whole graph (sink included) rolls
    # back, so output duplicates appear — but nothing is lost.
    counts = Counter(v for _tag, v in sink_values(log))
    assert set(counts) == set(range(3000))


def run_connected_pair_failure(config):
    """source -> a -> b -> sink with a[0] and b[0] killed at the same instant."""
    env = Environment()
    log = DurableLog()
    log.create_generated_topic("in", 1, lambda p, off: off, 2000.0, 3000)
    log.create_topic("out", 1)
    builder = JobGraphBuilder("connected-pair")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    a = stream.key_by(lambda v: v % 7).process("a", TagOperator)
    b = a.key_by(lambda v: v[1] % 7).process("b", lambda: TagOperator())
    b.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
    jm = JobManager(env, builder.build(), config)
    jm.deploy()
    env.schedule_callback(0.7, lambda: jm.kill_task("a[0]"))
    env.schedule_callback(0.7, lambda: jm.kill_task("b[0]"))
    jm.run_until_done(limit=600)
    return jm, Counter(v[1] for _tag, v in sink_values(log))


def test_orphan_with_fallback_disabled_skips_dedup():
    """Section 5.4: beyond f failures, Clonos can favour availability —
    local recovery without determinants, at-least-once."""
    config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.3)
    config.clonos.determinant_sharing_depth = 1
    config.clonos.fallback_to_global = False
    # Two connected concurrent failures exceed DSD=1: a's only determinant
    # holder (b) died with it while the sink survives and depends on a.
    jm, counts = run_connected_pair_failure(config)
    assert any(kind == "orphan-skip-dedup" for _t, kind, _n in jm.recovery_events)
    assert not any("global-restart" in kind for _t, kind, _n in jm.recovery_events)
    assert set(counts) == set(range(3000))  # at-least-once: nothing lost
    # Recovering without a determinant bundle still ends the incident.
    assert_recovery_announced(jm, "a[0]")


def test_full_dsd_recovers_two_connected_failures_locally():
    """Two connected tasks failing together under DSD=Full: the upstream's
    replacement comes back before its downstream has one, so its regenerated
    output must wait in the in-flight log for the downstream's replay request
    instead of racing ahead of the replay as live buffers."""
    jm, counts = run_connected_pair_failure(
        make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.3)
    )
    kinds = [kind for _t, kind, _n in jm.recovery_events]
    assert not [k for k in kinds if k.startswith("degraded") or "global-restart" in k]
    assert "replay-diverged" not in kinds
    assert counts == Counter(range(3000))
    for victim in ("a[0]", "b[0]"):
        assert_recovery_announced(jm, victim)


def assert_recovery_announced(jm, victim):
    assert (victim, "recovered") in {(n, k) for _t, k, n in jm.recovery_events}
    incident = next(
        i for i in build_timeline(jm.trace).incidents if i.victim == victim
    )
    assert incident.end_source != "incomplete"
    assert [p.name for p in incident.phases][-1] == "catch-up"


def test_clonos_without_determinant_sharing_announces_recovery():
    """DSD=0 keeps no causal log, so a recovery loads no bundle and the task
    is live as soon as it starts: that is its recovered instant."""
    jm, log = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["sink[0]"], dsd=0)
    assert set(v for _tag, v in sink_values(log)) == set(range(3000))
    assert_recovery_announced(jm, "sink[0]")


# ---------------------------------------------------------------------------
# Recovery characteristics
# ---------------------------------------------------------------------------


def test_clonos_recovers_faster_than_global_rollback():
    jm_clonos, _ = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["mid[0]"])
    jm_flink, _ = run_job(
        FaultToleranceMode.GLOBAL_ROLLBACK, TagOperator, kill=["mid[0]"]
    )

    def recovery_span(jm, done_kinds):
        start = jm.failures_injected[0][0]
        end = max(t for t, kind, _n in jm.recovery_events if kind in done_kinds)
        return end - start

    clonos_span = recovery_span(jm_clonos, {"recovered"})
    flink_span = recovery_span(jm_flink, {"global-restart-done"})
    assert clonos_span < flink_span / 3


def test_standby_activation_beats_fresh_deployment():
    jm_standby, _ = run_job(FaultToleranceMode.CLONOS, TagOperator, kill=["mid[0]"])

    env = Environment()
    log = DurableLog()
    log.create_generated_topic("in", 1, lambda p, off: off, 2000.0, 3000)
    log.create_topic("out", 1)
    config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.3)
    config.clonos.standby_tasks = False
    builder = JobGraphBuilder("no-standby")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    mid = stream.key_by(lambda v: v % 7).process("mid", TagOperator)
    mid.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
    jm_fresh = JobManager(env, builder.build(), config)
    jm_fresh.deploy()
    env.schedule_callback(0.7, lambda: jm_fresh.kill_task("mid[0]"))
    jm_fresh.run_until_done(limit=600)
    assert Counter(sink_values(log)) == Counter(("tag", i) for i in range(3000))

    def first_recovered(jm):
        start = jm.failures_injected[0][0]
        return min(
            t for t, kind, _n in jm.recovery_events if kind == "recovered"
        ) - start

    assert first_recovered(jm_standby) < first_recovered(jm_fresh)


def test_clonos_unaffected_paths_keep_running():
    """Kill one of two parallel mid subtasks: the sibling keeps processing
    while recovery is in progress (local recovery, Section 2)."""
    env = Environment()
    log = DurableLog()
    log.create_generated_topic("in", 2, lambda p, off: (p, off), 1500.0, 3000)
    log.create_topic("out", 2)
    config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=0.3)
    builder = JobGraphBuilder("parallel")
    stream = builder.source("src", lambda: KafkaSource(log, "in"), parallelism=2)
    mid = stream.process("mid", lambda: MapOperator(lambda v: v))
    mid.sink("sink", lambda: KafkaSink(log, "out"))
    jm = JobManager(env, builder.build(), config)
    jm.deploy()
    env.schedule_callback(0.7, lambda: jm.kill_task("mid[0]"))

    progress = {}

    def probe():
        progress["before"] = jm.task_of("mid[1]").records_processed

    def probe_after():
        progress["after"] = jm.task_of("mid[1]").records_processed

    env.schedule_callback(0.71, probe)
    env.schedule_callback(0.9, probe_after)
    jm.run_until_done(limit=600)
    assert progress["after"] > progress["before"]
    assert len(sink_values(log)) == 6000
