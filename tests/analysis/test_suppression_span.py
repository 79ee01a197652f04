"""An inline ``# ndlint: disable`` comment waives a finding from any line
of a multi-line construct, and findings stay one per file and line."""

from repro.analysis.causal import analyze_tree

SNAPSHOT_SET_ITERATION = """
class Op:
    def __init__(self):
        self.items = []

    def snapshot(self):
        return {
            value
            for value in self.items  # ndlint: disable=ND201
        }

    def snapshot_state(self):
        return {
            value
            for value in self.items
        }
"""


def _analyze(path):
    return analyze_tree(path, package="", use_allowlist=False)


def test_nd107_suppressed_set_iteration_in_snapshot_method(tmp_path):
    # The disable comment sits on an *interior* line of the multi-line set
    # comprehension; the finding anchors at its first line.
    path = tmp_path / "op.py"
    path.write_text(SNAPSHOT_SET_ITERATION)
    report = _analyze(path)
    (flagged,) = report.findings
    (suppressed,) = report.suppressed
    assert flagged.rule.rule_id == suppressed.rule.rule_id == "ND201"
    assert flagged.line > suppressed.line  # the uncommented twin still fires


def test_nd107_suppression_on_single_line_still_works(tmp_path):
    path = tmp_path / "op.py"
    path.write_text(
        "class Op:\n"
        "    def snapshot(self):\n"
        "        return {1, 2, 3}  # ndlint: disable=ND201\n"
    )
    report = _analyze(path)
    assert report.findings == [] and report.ok
    assert [f.rule.rule_id for f in report.suppressed] == ["ND201"]


def test_dedupe_reports_keeps_distinct_findings(tmp_path):
    # Identical code in two files is two findings, one per file.
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(
            "import time\n\n\ndef op(r, ctx):\n    ctx.collect(time.time())\n"
        )
    report = _analyze(tmp_path)
    assert sorted(f.file.rsplit("/", 1)[-1] for f in report.findings) == [
        "a.py", "b.py"
    ]
