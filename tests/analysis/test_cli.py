"""CLI exit-code tests for ``repro verify-static`` over the shipped code and
single files, and for ``repro sanitize``."""

from pathlib import Path

import repro.nexmark.queries as queries_module
from repro.cli import main

from tests.analysis import fixture_udfs as fx

FIXTURE_FILE = str(Path(fx.__file__))


def test_lint_all_shipped_code_is_clean(capsys):
    # The default roots are the framework tree and the examples.
    assert main(["verify-static"]) == 0
    out = capsys.readouterr().out
    assert "causal-coverage analysis of" in out and "examples" in out
    assert out.count("status: clean") == 2


def test_lint_flags_fixture_file(capsys):
    assert main(["verify-static", FIXTURE_FILE]) == 1
    out = capsys.readouterr().out
    assert "ND202" in out and "ND201" in out
    assert "fixture_udfs.py:" in out
    assert "suppressed (1):" in out


def test_lint_strict_fails_on_warnings(tmp_path, capsys):
    # Set iteration reaching output fails the gate like any other finding.
    warn_only = tmp_path / "warn_only.py"
    warn_only.write_text(
        "def op(record, ctx):\n"
        "    for item in {1, 2, 3}:\n"
        "        ctx.collect(item)\n"
    )
    assert main(["verify-static", str(warn_only)]) == 1
    assert "iteration over a set" in capsys.readouterr().out


def test_lint_single_query(capsys):
    assert main(["verify-static", queries_module.__file__]) == 0
    assert "queries.py" in capsys.readouterr().out


def test_lint_unknown_target(capsys):
    assert main(["verify-static", FIXTURE_FILE.replace(".py", ".txt")]) == 2
    assert "not a directory or .py file" in capsys.readouterr().err


def test_sanitize_unknown_target(capsys):
    assert main(["sanitize", "nonsense"]) == 2
    assert "unknown sanitize target" in capsys.readouterr().err
