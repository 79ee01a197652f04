"""The wrappers: what they count, and that they leave nothing behind."""

import time

import pytest

from bench import tracing, workloads
from repro.sim.core import Environment

NO_OVERHEAD = tracing.Overhead(0.0, 0.0, 0.0, 0.0)


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def test_generator_seam_counts_busy_time_not_suspension():
    def seam(tag):
        _spin(0.003)
        answer = yield f"event-{tag}"
        _spin(0.003)
        return answer * 2

    recorder = tracing.Recorder()
    generator = tracing.wrap_generator(recorder, "toy.seam", seam)("a")
    assert next(generator) == "event-a"
    time.sleep(0.06)  # suspended in simulated time: the host clock runs on
    with pytest.raises(StopIteration) as stop:
        generator.send(21)
    assert stop.value.value == 42
    recorder.finish(NO_OVERHEAD)
    busy_s = recorder.self_ns("toy.seam") / 1e9
    assert 0.006 <= busy_s < 0.03, busy_s
    assert recorder.calls("toy.seam") == 1
    assert recorder.calls("toy.seam.resumed") == 1
    assert len(recorder.stack) == 1


def test_generator_seam_forwards_throw_and_close_like_yield_from():
    seen = []

    def seam():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
        try:
            yield 2
        finally:
            seen.append("closed")

    recorder = tracing.Recorder()
    generator = tracing.wrap_generator(recorder, "toy.seam", seam)()
    assert next(generator) == 1
    assert generator.throw(KeyError("k")) == 2
    generator.close()
    assert seen == ["thrown", "closed"]
    assert len(recorder.stack) == 1


def test_self_time_is_duration_minus_children_keyed_by_parent():
    recorder = tracing.Recorder()
    inner = tracing.wrap_function(recorder, "toy.inner", lambda: _spin(0.004))

    def outer_body():
        _spin(0.002)
        inner()
        inner()

    tracing.wrap_function(recorder, "toy.outer", outer_body)()
    recorder.finish(NO_OVERHEAD)
    assert recorder.calls("toy.inner", parent="toy.outer") == 2
    (calls, total_ns, self_ns), = recorder.aggs["toy.outer"].values()
    assert calls == 1 and total_ns >= 10_000_000
    assert 2_000_000 <= self_ns < 6_000_000
    assert recorder.self_ns("toy") == pytest.approx(total_ns, rel=0.01)


def test_calibrated_overhead_is_taken_out_of_the_parent():
    recorder = tracing.Recorder()
    child = tracing.wrap_function(recorder, "toy.child", lambda: None)

    def parent_body():
        for _ in range(20000):
            child()

    tracing.wrap_function(recorder, "toy.parent", parent_body)()
    raw_parent = recorder.aggs["toy.parent"]["<repetition>"][2]
    recorder.finish(tracing.calibrate())
    # The parent does nothing but call watched children: net of the
    # wrappers' cost most of its raw self time goes away.
    assert recorder.net_self_ns["toy.parent"] < 0.6 * raw_parent


def test_tracing_is_passive_and_fully_removed():
    bindings = tracing._bindings([])
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _seam in bindings]
    factory = Environment._profiler_factory
    workload = workloads.build("chain_paced_clonos", seed=4, tiny=True)

    untraced = workload.run()
    recorder = tracing.Recorder()
    with tracing.tracing(recorder):
        assert any(vars(o)[a] is not f for o, a, f in before)
        traced = workload.run()
    again = workload.run()

    assert recorder.unresolved == []
    assert recorder.steps > 0 and len(recorder.stack) == 1
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert Environment._profiler_factory is factory
    assert traced.signature() == untraced.signature() == again.signature()


def test_wrappers_are_removed_when_the_traced_run_raises():
    bindings = tracing._bindings([])
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _seam in bindings]
    with pytest.raises(RuntimeError):
        with tracing.tracing(tracing.Recorder()):
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_a_renamed_seam_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        tracing, "SEAMS",
        tracing.SEAMS + [tracing.Seam("toy", "repro.net.writer:RecordWriter.no_such_method")],
    )
    recorder = tracing.Recorder()
    with tracing.tracing(recorder):
        pass
    assert recorder.unresolved == ["repro.net.writer:RecordWriter.no_such_method"]
