"""Exporters: JSONL roundtrip, Chrome-trace validity, span tree shape,
and byte-level determinism across same-seed runs."""

import json

import pytest

from repro.trace import (
    chrome_trace,
    events_to_jsonl,
    timeline_of,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

from tests.trace.conftest import SMALL_FIG6, tiny_failure_run


def test_jsonl_roundtrips_every_event(clonos_run, tmp_path):
    trace = clonos_run.result.jm.trace
    path = write_jsonl(tmp_path / "trace.jsonl", trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace)
    docs = [json.loads(line) for line in lines]
    for doc, event in zip(docs, trace):
        assert doc["time"] == event.time
        assert doc["kind"] == event.kind
        assert doc["subject"] == event.subject


def test_chrome_trace_is_schema_valid(clonos_run, tmp_path):
    result = clonos_run.result
    document = chrome_trace(
        result.jm.trace,
        timeline_of(result),
        job_name="fig6-Q3-clonos",
        extra_metadata={"seed": result.config.seed},
    )
    assert validate_chrome_trace(document) == []
    assert document["otherData"]["generator"] == "repro.trace"
    path = write_chrome_trace(tmp_path / "trace.chrome.json", document)
    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) == ["document is not a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {
        "traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 0},
            {"ph": "X", "name": "", "pid": 1, "tid": 0, "ts": -1.0, "dur": -2.0},
            {"ph": "i", "name": "y", "pid": "1", "tid": 0, "ts": 0.0, "s": "q"},
        ]
    }
    problems = validate_chrome_trace(bad)
    assert len(problems) >= 4


def test_span_tree_nests_incident_phases(clonos_run):
    result = clonos_run.result
    timeline = timeline_of(result)
    document = chrome_trace(result.jm.trace, timeline, job_name="fig6")
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    counts = {}
    for span in spans:
        counts[span["cat"]] = counts.get(span["cat"], 0) + 1
    assert counts["job"] == 1
    assert spans[0]["cat"] == "job" and spans[0]["name"] == "fig6"
    assert counts["recovery-incident"] == len(timeline.incidents)
    assert counts["recovery-phase"] == sum(
        len(incident.phases) for incident in timeline.incidents
    )
    assert counts["epoch"] >= 1 and counts["checkpoint"] >= 1
    # Each incident span is followed by its phases, on the victim's thread.
    incident = None
    for span in spans:
        if span["cat"] == "recovery-incident":
            incident = span
        elif span["cat"] == "recovery-phase":
            assert span["args"]["incident"] == incident["args"]["incident"]
            assert span["tid"] == incident["tid"] != 0
            assert incident["ts"] <= span["ts"]
            assert span["ts"] + span["dur"] <= incident["ts"] + incident["dur"] + 1e-3


def test_exports_are_deterministic_across_same_seed_runs():
    blobs = []
    for _ in range(2):
        result = tiny_failure_run()
        document = chrome_trace(
            result.jm.trace, timeline_of(result), job_name="tiny"
        )
        blobs.append(
            (
                events_to_jsonl(list(result.jm.trace)),
                json.dumps(document, sort_keys=True),
            )
        )
    assert blobs[0] == blobs[1]


def test_instants_cover_the_injected_failure(clonos_run):
    result = clonos_run.result
    document = chrome_trace(result.jm.trace, timeline_of(result))
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    names = {e["name"] for e in instants}
    assert {"failure-injected", "failure-detected", "task-recovered"} <= names
    kill_us = pytest.approx(SMALL_FIG6["kill_at"] * 1e6)
    assert any(
        e["name"] == "failure-injected" and e["ts"] == kill_us for e in instants
    )
