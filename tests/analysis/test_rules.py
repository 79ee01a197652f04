"""The causal analyzer against its UDF fixtures: every ``bad_*`` fixture is
flagged once, every ``good_*`` rewrite is clean, and each finding's flow
path and fix name the source it caught."""

from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.causal import analyze_tree

from tests.analysis import fixture_udfs as fx

FIXTURE_FILE = Path(fx.__file__)

FLAGGED = (
    "bad_wall_clock",
    "bad_rng",
    "bad_external",
    "bad_unordered",
    "make_bad_closure_counter",
    "make_bad_nonlocal_counter",
    "bad_ambient",
    "bad_key_selector",
    "BadSnapshotKeys",
    "BadDigestWriter",
)
CLEAN = (
    "good_wall_clock",
    "good_rng",
    "good_external",
    "good_unordered",
    "good_key_selector",
    "GoodSnapshotKeys",
)


@lru_cache(maxsize=1)
def report():
    return analyze_tree(FIXTURE_FILE, package="", use_allowlist=False)


def _of(name, findings):
    """Findings inside fixture ``name`` (a function, a class, or a def or
    lambda nested in one)."""
    out = []
    for finding in findings:
        qualname = finding.symbol.split(":", 1)[1]
        if qualname == name or qualname.startswith(name + "."):
            out.append(finding)
    return out


def flagged(name):
    return _of(name, report().findings)


def path_text(finding):
    return " ".join(step.description for step in finding.path)


@pytest.mark.parametrize("name", FLAGGED + CLEAN + ("suppressed_wall_clock",))
def test_fixture_verdict(name):
    """The spec: bad fixtures flagged exactly once, good ones clean, the
    commented one reported as suppressed."""
    if name in FLAGGED:
        assert len(flagged(name)) == 1, report().render()
    else:
        assert flagged(name) == [], report().render()
    suppressed = _of(name, report().suppressed)
    assert len(suppressed) == (name == "suppressed_wall_clock")


def test_wall_clock_flagged():
    (finding,) = flagged("bad_wall_clock")
    assert finding.rule.rule_id == "ND202"
    assert "time.time" in path_text(finding)
    assert "ctx.services.timestamp()" in finding.message
    assert finding.file.endswith("fixture_udfs.py")
    assert "time.time()" in FIXTURE_FILE.read_text().splitlines()[finding.line - 1]


def test_wall_clock_sanctioned():
    assert flagged("good_wall_clock") == []


def test_rng_flagged():
    # The draw only guards the emit: the finding is a control dependence.
    (finding,) = flagged("bad_rng")
    assert finding.rule.rule_id == "ND202"
    assert "random.random" in path_text(finding)
    assert finding.path[0].line < finding.line
    assert "ctx.services.random()" in finding.message


def test_rng_sanctioned():
    assert flagged("good_rng") == []


def test_external_io_flagged():
    (finding,) = flagged("bad_external")
    assert "get_now" in path_text(finding)
    assert "ctx.services.http_get" in finding.message


def test_external_io_inside_services_custom_is_sanctioned():
    # Also covers the lambda handed to services.custom: it is no UDF.
    assert flagged("good_external") == []


def test_unordered_iteration_flagged():
    (finding,) = flagged("bad_unordered")
    assert finding.rule.rule_id == "ND202"
    assert "iteration over a set" in path_text(finding)
    assert "sorted(...)" in finding.message


def test_sorted_iteration_passes():
    assert flagged("good_unordered") == []


def test_closure_mutation_flagged():
    (closure,) = flagged("make_bad_closure_counter")
    assert "captured 'counts'" in path_text(closure)
    (nonlocal_,) = flagged("make_bad_nonlocal_counter")
    assert "captured 'total'" in path_text(nonlocal_)
    assert "ctx.state(" in nonlocal_.message


def test_ambient_environment_flagged():
    (finding,) = flagged("bad_ambient")
    assert "os.getenv" in path_text(finding)
    assert "ctx.services.custom" in finding.message


def test_key_selector_return_is_output():
    (finding,) = flagged("bad_key_selector")
    assert finding.rule.rule_id == "ND202"
    assert "return value of UDF" in path_text(finding)


def test_inline_suppression():
    assert flagged("suppressed_wall_clock") == []
    (finding,) = _of("suppressed_wall_clock", report().suppressed)
    assert finding.rule.rule_id == "ND202"
    assert report().ok is False  # the other fixtures still fail the gate


def test_nondet_serialization_flagged():
    (finding,) = flagged("BadSnapshotKeys")
    assert finding.rule.rule_id == "ND201"
    assert "set() persisted by a snapshot method" in path_text(finding)


def test_nondet_serialization_hash_digest_flagged():
    # hash() and frozenset() are one hash-order flow into one return.
    (finding,) = flagged("BadDigestWriter")
    assert finding.rule.rule_id == "ND201"
    assert "frozenset()" in path_text(finding) or "hash()" in path_text(finding)


def test_sorted_projection_in_snapshot_passes():
    assert flagged("GoodSnapshotKeys") == []


def test_sets_outside_snapshot_methods_are_not_nd107():
    # A set built in process logic is an output finding, never a state one.
    assert {f.rule.rule_id for f in flagged("bad_unordered")} == {"ND202"}


def test_nd107_reached_from_operator_class():
    (finding,) = flagged("BadSnapshotKeys")
    assert finding.symbol.endswith(":BadSnapshotKeys.snapshot")


def test_report_strictness(tmp_path):
    # Every live finding fails the report; a suppressed one does not.
    assert not report().ok
    waived = tmp_path / "waived.py"
    waived.write_text(
        "import time\n\n\ndef op(record, ctx):\n"
        "    ctx.collect(time.time())  # ndlint: disable=ND202\n"
    )
    only_waived = analyze_tree(waived, package="")
    assert only_waived.ok and len(only_waived.suppressed) == 1
