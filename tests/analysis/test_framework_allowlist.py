"""The profiler's wall-clock reads, the one sanctioned nondeterminism source
in the framework, need no allowlist entry; an exemption, when one is
written, matches its own file and nothing else."""

from pathlib import Path

import repro.trace.profiler as profiler_module
from repro.analysis.causal import analyze_tree
from repro.analysis.causal.allowlist import CAUSAL_ALLOWLIST, Exemption
from repro.analysis.causal.model import CausalFinding, ND_OUTPUT

PROFILER_FILE = Path(profiler_module.__file__)

PROFILER_ENTRY = Exemption(
    "ND202", "repro/trace/profiler.py", "", "wall-clock self-time, report only"
)


def _finding(file):
    return CausalFinding(rule=ND_OUTPUT, file=file, line=1, message="m")


def test_profiler_module_lints_clean():
    report = analyze_tree(PROFILER_FILE, package="", use_allowlist=False)
    assert report.findings == [] and report.ok, report.render()


def test_allowlist_matches_by_path_suffix():
    assert PROFILER_ENTRY.matches(_finding(str(PROFILER_FILE)))
    assert PROFILER_ENTRY.matches(_finding("repro/trace/profiler.py"))
    assert PROFILER_ENTRY.matches(_finding("repro\\trace\\profiler.py"))


def test_other_modules_get_no_exemption():
    assert not PROFILER_ENTRY.matches(_finding("src/repro/trace/events.py"))
    assert not PROFILER_ENTRY.matches(_finding("user_code/profiler.py"))


def test_wall_clock_still_flagged_outside_the_allowlist(tmp_path):
    # The read the profiler makes is a finding once it reaches output.
    bad = tmp_path / "user_op.py"
    bad.write_text(
        "import time\n\n\ndef op(record, ctx):\n"
        "    ctx.collect(time.perf_counter())\n"
    )
    report = analyze_tree(bad, package="")
    assert not report.ok
    assert [f.rule.rule_id for f in report.findings] == ["ND202"]


def test_allowlist_stays_minimal():
    # The framework exemption merged into the one allowlist as no entry.
    assert not any(
        entry.path_suffix.endswith("trace/profiler.py") for entry in CAUSAL_ALLOWLIST
    )
