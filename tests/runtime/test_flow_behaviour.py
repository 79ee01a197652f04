"""End-to-end behavioural tests: backpressure, watermark flow, checkpoint
lifecycle details."""

import pytest

from repro.config import FaultToleranceMode
from repro.external.kafka import DurableLog
from repro.graph.logical import JobGraphBuilder
from repro.operators import (
    CountAggregator,
    EventTimeWindowOperator,
    KafkaSink,
    KafkaSource,
    MapOperator,
    ProcessOperator,
)
from repro.runtime.jobmanager import JobManager
from repro.sim.core import Environment

from tests.runtime.helpers import fast_cost, make_config, sink_values


def test_backpressure_throttles_sources():
    """A slow operator must slow the sources down (bounded pipeline), not
    let queues grow without bound."""
    env = Environment()
    log = DurableLog()
    log.create_generated_topic("in", 1, lambda p, off: off, 1e9, None)  # firehose
    log.create_topic("out", 1)
    config = make_config(
        FaultToleranceMode.GLOBAL_ROLLBACK,
        cost=fast_cost(record_cpu_cost=5e-6, buffer_size_bytes=512),
        checkpoint_interval=10.0,
    )

    def slow(record, ctx):
        ctx.collect(record.value)

    builder = JobGraphBuilder("bp")
    stream = builder.source("src", lambda: KafkaSource(log, "in"))
    mid = stream.key_by(lambda v: 0).process("slow", lambda: ProcessOperator(slow))
    mid.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
    jm = JobManager(env, builder.build(), config)
    jm.deploy()
    # Make the middle operator artificially slow by inflating its cpu debt.
    slow_task = jm.task_of("slow[0]")
    original_charge = slow_task.charge
    slow_task.charge = lambda s: original_charge(s * 50)
    env.run(until=2.0)
    src_offset = jm.task_of("src[0]").operator.offset
    consumed = jm.task_of("slow[0]").records_processed
    # The source read only what the pipeline could absorb: its lead over the
    # slow stage is bounded by the pipeline's buffer capacity.
    assert src_offset - consumed < 2000
    assert src_offset < 100_000


def test_watermarks_take_min_across_parallel_sources():
    """A keyed window downstream of two sources fires only when BOTH
    sources' watermarks passed the window end."""
    env = Environment()
    log = DurableLog()
    # Partition 1 lags: its events arrive 10x slower.
    log.create_generated_topic("in", 2, lambda p, off: (p, off), 1000.0, 2000)
    slow_partition = log.partition("in", 1)
    fast_rate = slow_partition.rate

    class LaggyPartition(type(slow_partition)):
        pass

    slow_partition.rate = fast_rate / 4  # arrivals (and watermarks) lag
    log.create_topic("out", 2)
    config = make_config(FaultToleranceMode.CLONOS, checkpoint_interval=5.0)
    builder = JobGraphBuilder("wm")
    stream = builder.source("src", lambda: KafkaSource(log, "in"), parallelism=2)
    counted = stream.key_by(lambda v: v[1] % 5).process(
        "win",
        lambda: EventTimeWindowOperator(
            0.5, CountAggregator(), result_fn=lambda k, w, c: (w.start, k, c)
        ),
    )
    counted.key_by(lambda v: v[1]).sink("sink", lambda: KafkaSink(log, "out"))
    jm = JobManager(env, builder.build(), config)
    jm.deploy()
    env.run(until=1.5)
    # Fast source is ~1.5s of event time in; slow source only ~0.37s. The
    # combined watermark is held back by the slow source, so no window at or
    # past its frontier may have fired yet.
    fired_starts = [v[0] for v in sink_values(log)]
    slow_frontier = 0.375
    assert all(start < slow_frontier for start in fired_starts)
    jm.run_until_done(limit=300)
    assert len(sink_values(log)) > 0


class TestCheckpointLifecycle:
    def build(self, checkpoint_interval=0.3):
        env = Environment()
        log = DurableLog()
        log.create_generated_topic("in", 1, lambda p, off: off, 1000.0, 4000)
        log.create_topic("out", 1)
        config = make_config(
            FaultToleranceMode.CLONOS, checkpoint_interval=checkpoint_interval
        )
        builder = JobGraphBuilder("chk")
        stream = builder.source("src", lambda: KafkaSource(log, "in"))
        mid = stream.key_by(lambda v: v % 3).process(
            "mid", lambda: MapOperator(lambda v: v)
        )
        mid.key_by(lambda v: 0).sink("sink", lambda: KafkaSink(log, "out"))
        jm = JobManager(env, builder.build(), config)
        jm.deploy()
        return env, jm

    def test_no_concurrent_checkpoints(self):
        env, jm = self.build()
        jm.run_until_done(limit=300)
        times = [t for _cid, t in jm.checkpoints_completed]
        assert times == sorted(times)
        ids = [cid for cid, _t in jm.checkpoints_completed]
        assert len(set(ids)) == len(ids)

    def test_failure_aborts_pending_checkpoint(self):
        env, jm = self.build(checkpoint_interval=0.5)
        # Kill right when a checkpoint is likely in flight.
        env.schedule_callback(0.501, lambda: jm.kill_task("mid[0]"))
        jm.run_until_done(limit=300)
        assert jm._aborted_checkpoints or jm.completed_checkpoint >= 1
        # Whatever was aborted never shows up as completed.
        completed = {cid for cid, _t in jm.checkpoints_completed}
        assert not (completed & jm._aborted_checkpoints)

    def test_old_snapshots_discarded(self):
        env, jm = self.build()
        jm.run_until_done(limit=300)
        store = jm.snapshot_store
        latest = jm.completed_checkpoint
        assert latest >= 2
        assert store.get("mid[0]", latest) is not None
        # Retain-last-N: the newest N completed epochs survive (the
        # multi-epoch fallback's raw material); everything older is GC'd
        # from memory and its blob deleted from the DFS.
        kept = [cid for cid, _t in jm.checkpoints_completed][
            -jm.config.integrity.retain_checkpoints:
        ]
        for old in range(1, latest):
            if old in kept:
                assert store.get("mid[0]", old) is not None
            else:
                assert store.get("mid[0]", old) is None
                assert not jm.dfs.exists(f"chk/mid[0]/{old}")

    def test_checkpoints_pause_during_recovery(self):
        env, jm = self.build(checkpoint_interval=0.3)
        env.schedule_callback(0.7, lambda: jm.kill_task("mid[0]"))
        jm.run_until_done(limit=300)
        detected = next(t for t, k, _ in jm.recovery_events if k == "detected")
        recovered = next(t for t, k, _ in jm.recovery_events if k == "recovered")
        triggered_during = [
            t for cid, t in jm.checkpoints_completed if detected <= t <= recovered
        ]
        assert triggered_during == []


class TestTaskWakeUp:
    """An idle task waits on one signal; nothing piles up behind it."""

    def run_paced(self, n_records, rate):
        from tests.runtime.helpers import build_linear_job

        env = Environment()
        log = DurableLog()
        # One checkpoint in the whole run: control and timer signals are
        # (almost) never pulsed while the tasks wake once per arrival.
        config = make_config(
            FaultToleranceMode.GLOBAL_ROLLBACK, checkpoint_interval=1e6
        )
        jm = build_linear_job(env, config, log, n_records=n_records, rate=rate)
        return env, jm, log

    def test_ten_thousand_wakes_retain_a_constant_number_of_kernel_objects(self):
        import gc

        from repro.sim.core import Event

        env, jm, log = self.run_paced(10_000, rate=1000.0)
        jm.run_until_done(limit=60)
        assert len(sink_values(log)) == 10_000
        gc.collect()
        live = sum(
            1 for obj in gc.get_objects() if isinstance(obj, Event) and obj.env is env
        )
        # Event, Timeout, AnyOf and Process all count; per-wait events in
        # never-pulsed waiter lists used to keep three per wake alive.
        assert live < 100, live

    @pytest.fixture
    def polls(self, monkeypatch):
        """Records returned by each ``KafkaSource.poll`` of the test."""
        polls = []
        original = KafkaSource.poll

        def counting_poll(self, ctx, max_records):
            records, next_arrival = original(self, ctx, max_records)
            polls.append(len(records))
            return records, next_arrival

        monkeypatch.setattr(KafkaSource, "poll", counting_poll)
        return polls

    def test_paced_source_polls_once_per_arrival(self, polls):
        env, jm, log = self.run_paced(500, rate=1000.0)
        jm.run_until_done(limit=60)
        assert len(sink_values(log)) == 500
        # One poll per arrival plus the one that finds the topic exhausted
        # (a re-poll right after emitting only rediscovers the next arrival).
        assert 500 <= len(polls) <= 520, len(polls)

    def test_backlogged_source_keeps_polling_without_sleeping(self, polls):
        env, jm, log = self.run_paced(640, rate=1e9)  # all due within 1 µs
        jm.run_until_done(limit=60)
        # Every poll but the last finds records: the arrival a poll reports
        # is only trusted while it lies in the future.
        assert sum(polls) == 640 and polls[-1] == 0
        assert all(polls[:-1]) and len(polls) <= 12, polls


class TestDriveLoop:
    """``run_until_done`` and duration-bounded runs share ``drive``."""

    def build(self, crash_at=None, n_records=400):
        from tests.runtime.helpers import build_linear_job

        def boom(value):
            if crash_at is not None and value[1] == crash_at:
                raise ValueError("operator bug")
            return value

        env = Environment()
        log = DurableLog()
        config = make_config(FaultToleranceMode.GLOBAL_ROLLBACK)
        jm = build_linear_job(
            env, config, log, n_records=n_records,
            mid_operator_factory=lambda: MapOperator(boom),
        )
        return env, jm

    def test_a_crash_stops_the_drive_at_the_crash_instant(self):
        from repro.errors import JobError

        env, jm = self.build(crash_at=100)
        with pytest.raises(JobError, match="map\\[0\\] crashed"):
            jm.drive(60.0)
        assert env.now < 1.0  # not at the deadline

    def test_drive_stops_at_the_deadline_or_when_the_job_finishes(self):
        env, jm = self.build(n_records=4000)  # 2 s of input
        assert not jm.drive(0.5)
        assert env.now == 0.5
        assert jm.drive(60.0)
        assert 2.0 < env.now < 3.0

    def test_deadline_expiry_still_raises_the_structured_stall_diagnostic(self):
        from repro.errors import RecoveryStallError

        env, jm = self.build(n_records=4000)
        with pytest.raises(RecoveryStallError, match="did not finish within 0.5s") as err:
            jm.run_until_done(limit=0.5)
        assert err.value.replay_positions

    def test_ending_the_job_does_not_cut_a_hand_stepped_run_short(self):
        env, jm = self.build(n_records=100)
        env.run(until=5.0)
        assert jm._job_finished()
        assert env.now == 5.0
