"""The causal analyzer over job-building code: the UDFs, lambdas, key
selectors and operator classes a graph is built from, read from source."""

from repro.analysis.causal import analyze_tree

from tests.analysis.test_rules import FIXTURE_FILE

GRAPH = """
import random
import time

from repro.graph.logical import JobGraphBuilder
from repro.operators import FlatMapOperator, ProcessOperator


class StubSource:
    def poll(self, ctx):
        return None


def good_wall_clock(record, ctx):
    ctx.collect((record, ctx.services.timestamp()))


def build(udf):
    builder = JobGraphBuilder("lint-fixture")
    stream = builder.source("src", lambda: StubSource())
    stream.key_by(lambda v: v).process("op", lambda: ProcessOperator(udf)).sink(
        "snk", lambda: StubSource()
    )
    return builder.build()
"""

BAD_UDF = """
def bad_wall_clock(record, ctx):
    ctx.collect((record, time.time()))
"""


def _analyze(tmp_path, text):
    path = tmp_path / "job.py"
    path.write_text(text)
    return analyze_tree(path, package="", use_allowlist=False)


def _symbols(report):
    return [f.symbol.split(":", 1)[1] for f in report.findings]


def test_graph_with_bad_udf_fails(tmp_path):
    report = _analyze(tmp_path, GRAPH + BAD_UDF + "\nJOB = build(bad_wall_clock)\n")
    assert not report.ok
    assert _symbols(report) == ["bad_wall_clock"]


def test_graph_with_sanctioned_udf_passes(tmp_path):
    report = _analyze(tmp_path, GRAPH + "\nJOB = build(good_wall_clock)\n")
    assert report.ok, report.render()
    assert report.findings == []


def test_resolution_reaches_operator_methods(tmp_path):
    # A user operator class's methods are analysed like any function.
    text = GRAPH.replace("        return None", "        ctx.collect(random.random())")
    report = _analyze(tmp_path, text)
    assert _symbols(report) == ["StubSource.poll"]


def test_library_operators_are_trusted(tmp_path):
    # A graph of library operators over a builtin has nothing to report.
    report = _analyze(
        tmp_path,
        "from repro.graph.logical import JobGraphBuilder\n"
        "from repro.operators import FlatMapOperator\n"
        "def build(source):\n"
        "    builder = JobGraphBuilder('trusted')\n"
        "    stream = builder.source('src', source)\n"
        "    stream.process('split', lambda: FlatMapOperator(str.split))\n"
        "    return builder.build()\n",
    )
    assert report.ok and report.findings == []


def test_bad_key_selector_is_linted(tmp_path):
    text = GRAPH.replace("key_by(lambda v: v)", "key_by(lambda v: random.randrange(4))")
    report = _analyze(tmp_path, text)
    (finding,) = report.findings
    assert finding.rule.rule_id == "ND202"
    assert finding.symbol.split(":", 1)[1].startswith("build.<lambda:")
    assert "random.randrange" in finding.path[0].description


def test_lint_file_sweeps_whole_module():
    report = analyze_tree(FIXTURE_FILE, package="", use_allowlist=False)
    categories = {f.message.split(" ", 1)[0] for f in report.findings}
    assert categories == {
        "clock", "rng", "external", "hash_order", "captured_state", "ambient"
    }
    assert len(report.suppressed) == 1  # the # ndlint: disable line


def test_lint_file_missing_path_is_unresolved():
    report = analyze_tree("/nonexistent/nowhere.py", package="")
    assert not report.ok
    assert any("/nonexistent/nowhere.py" in err for err in report.parse_errors)


def test_duplicate_udfs_reported_once(tmp_path):
    # One bad UDF wired into two operators is one finding at its source.
    text = GRAPH + BAD_UDF + (
        "\ndef two_ops(stream):\n"
        "    a = stream.process('a', lambda: ProcessOperator(bad_wall_clock))\n"
        "    a.process('b', lambda: ProcessOperator(bad_wall_clock))\n"
    )
    report = _analyze(tmp_path, text)
    assert _symbols(report) == ["bad_wall_clock"]
