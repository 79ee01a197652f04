"""SimProfiler: attribution, merge/report, and factory lifecycle."""

from repro.sim.core import Environment
from repro.trace import SimProfiler, merge_profiles, profiling


def test_profiling_attaches_and_restores_the_factory():
    assert Environment._profiler_factory is None
    with profiling() as profilers:
        env = Environment()
        assert env.profiler is profilers[0]
    assert Environment._profiler_factory is None
    assert Environment().profiler is None


def test_self_time_is_attributed_to_processes():
    with profiling() as profilers:
        env = Environment()

        def worker():
            for _ in range(3):
                yield env.timeout(1.0)

        env.process(worker(), name="worker-a")
        env.run()
    (profiler,) = profilers
    assert profiler.steps > 0
    rows = {row.name: row for row in profiler.rows()}
    assert "process:worker-a" in rows
    assert rows["process:worker-a"].calls >= 3
    assert profiler.total_ms() >= 0.0


def test_link_callbacks_show_up_as_named_handlers():
    """A link is a callback state machine, not a process: its wire time is
    attributed to ``handler:NetworkLink.<method>`` rows."""
    from repro.config import CostModel
    from repro.graph.elements import StreamRecord
    from repro.net import BufferPool, InputChannel, InputGate, NetworkBuffer, NetworkLink

    with profiling() as profilers:
        env = Environment()
        cost = CostModel()
        pool = BufferPool(env, 4 * cost.buffer_size_bytes, cost.buffer_size_bytes)
        link = NetworkLink(env, cost, name="a->b")
        channel = InputChannel(env, 0, capacity=8)
        link.attach_receiver(channel)
        InputGate(env, [channel])
        for seq in range(3):
            assert pool.try_acquire()
            buffer = NetworkBuffer(0, seq, 0, pool)
            buffer.append(StreamRecord(seq), 32)
            link.send(buffer)
        env.run()
    rows = {row.name: row for row in profilers[0].rows()}
    assert rows["handler:NetworkLink._on_transmitted"].calls == 3
    assert not any(name.startswith("process:link-pump") for name in rows)


def test_rows_sorted_by_total_and_top_limits():
    profiler = SimProfiler()
    profiler._calls.update({"process:a": 2, "process:b": 1})
    profiler._total_ns.update({"process:a": 5_000_000, "process:b": 9_000_000})
    rows = profiler.rows()
    assert [row.name for row in rows] == ["process:b", "process:a"]
    assert profiler.rows(top=1)[0].name == "process:b"
    assert rows[1].mean_us == 2500.0


def test_merge_profiles_sums_calls_and_time():
    one, two = SimProfiler(), SimProfiler()
    one._calls["process:a"] = 1
    one._total_ns["process:a"] = 1_000_000
    one.steps = 4
    two._calls["process:a"] = 2
    two._total_ns["process:a"] = 3_000_000
    two.steps = 6
    merged = merge_profiles([one, two])
    assert merged.steps == 10
    (row,) = merged.rows()
    assert row.calls == 3
    assert row.total_ms == 4.0
    assert "kernel steps" in merged.report()


def test_empty_report_is_harmless():
    assert SimProfiler().report() == "profiler: no callbacks recorded"
