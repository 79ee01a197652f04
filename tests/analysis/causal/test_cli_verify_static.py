"""Exit codes and report formats of ``repro verify-static``.

The determinism-tooling convention: 0 clean, 1 findings, 2 internal/usage
error.
"""

import json

from repro.cli import main

BAD_OP = """
import time


class WindowOp:
    def __init__(self):
        self.last_seen = 0.0

    def process(self, record, ctx):
        self.last_seen = time.time()

    def snapshot(self):
        return {"last_seen": self.last_seen}
"""


def _bad_tree(tmp_path):
    root = tmp_path / "badpkg"
    root.mkdir()
    (root / "ops.py").write_text(BAD_OP)
    return root


def test_shipped_tree_exits_zero(capsys):
    assert main(["verify-static"]) == 0
    out = capsys.readouterr().out
    assert "status: clean" in out


def test_findings_exit_one_with_file_line_paths(tmp_path, capsys):
    assert main(["verify-static", str(_bad_tree(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "ND201" in out
    assert "ops.py" in out
    # Human report numbers the flow path steps with file:line anchors.
    assert "1. " in out and ":" in out


def test_json_report_parses(tmp_path, capsys):
    assert main(["verify-static", "--json", str(_bad_tree(tmp_path))]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts"]["ND201"] >= 1
    assert all(f["path"] for f in payload["findings"])


def test_missing_directory_exits_two(capsys):
    assert main(["verify-static", "/no/such/tree"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_bench_file_records_wall_clock_and_counts(tmp_path, capsys):
    bench = tmp_path / "BENCH_static.json"
    assert main(
        ["verify-static", "--bench", str(bench), str(_bad_tree(tmp_path))]
    ) == 1
    payload = json.loads(bench.read_text())
    assert payload["bench"] == "verify-static"
    assert payload["ok"] is False
    assert payload["counts_by_rule"]["ND201"] >= 1
    assert payload["findings"] >= 1
    assert payload["wall_clock_s"] > 0
    assert payload["modules"] >= 1 and payload["functions"] >= 1


def test_parse_error_in_tree_is_a_finding_not_a_crash(tmp_path, capsys):
    root = tmp_path / "broken"
    root.mkdir()
    (root / "oops.py").write_text("def f(:\n")
    assert main(["verify-static", str(root)]) == 1
    out = capsys.readouterr().out
    assert "parse errors" in out
