"""TraceLog / TraceEvent unit behaviour."""

from repro.trace import TraceLog


def test_emit_appends_in_call_order():
    log = TraceLog()
    log.emit(1.0, "failure-injected", "join[0]")
    log.emit(0.5, "checkpoint-triggered", "*", checkpoint_id=3)
    kinds = [event.kind for event in log]
    assert kinds == ["failure-injected", "checkpoint-triggered"]
    assert len(log) == 2


def test_args_are_canonically_sorted_and_queryable():
    log = TraceLog()
    log.emit(0.25, "phase-end", "map[1]", status="ok", phase="inflight-replay")
    (event,) = list(log)
    assert event.args == (("phase", "inflight-replay"), ("status", "ok"))
    assert event.arg("phase") == "inflight-replay"
    assert event.arg("absent", "fallback") == "fallback"
    assert event.to_dict() == {
        "time": 0.25,
        "kind": "phase-end",
        "subject": "map[1]",
        "args": {"phase": "inflight-replay", "status": "ok"},
    }


def test_untraced_kind_records_only_the_recovery_view():
    log = TraceLog()
    log.emit(0.0, "suspected", "join[0]", misses=2)
    assert len(log) == 0
    assert log.recovery == [(0.0, "suspected:2", "join[0]")]
