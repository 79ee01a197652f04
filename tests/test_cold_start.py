"""Cold start: building and running a job loads none of the linter or the
trace tooling (``repro.analysis`` and ``repro.trace`` re-export lazily)."""

import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.analysis
import repro.trace

#: What ``bench/workloads.py`` imports from the package.
RUNTIME_MODULES = (
    "repro.config",
    "repro.harness.experiment",
    "repro.harness.figures",
    "repro.metrics.collectors",
    "repro.workloads.synthetic",
)


def test_runtime_imports_load_no_linter_and_no_trace_tooling():
    probe = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in RUNTIME_MODULES)
        + "print('\\n'.join(sorted(sys.modules)))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    loaded = set(
        subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    )
    assert "repro.analysis.invariants" in loaded  # the runtime's sanitizer hook
    assert "repro.trace.events" in loaded  # the runtime's event bus
    for heavy in (
        "repro.analysis.engine",
        "repro.analysis.rules",
        "repro.analysis.sanitizer",
        "repro.trace.export",
        "repro.trace.profiler",
        "repro.trace.timeline",
    ):
        assert heavy not in loaded, heavy


def test_every_reexported_name_resolves():
    for package in (repro.analysis, repro.trace):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
