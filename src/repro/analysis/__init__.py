"""``repro.analysis``: NDLint + the runtime determinism sanitizer.

Clonos' exactly-once guarantee holds only if *every* source of nondeterminism
in a UDF is intercepted by the causal services layer and logged as a
determinant (§4).  This package converts that assumption into an enforced
property:

* **NDLint** (static): :func:`lint_graph` resolves every operator callable on
  a :class:`~repro.graph.logical.JobGraph` and flags un-intercepted
  nondeterminism — wall-clock reads, module-level RNG, direct I/O, unordered
  iteration, shared mutable closures — each mapped to the determinant type
  that should have captured it.  Wired into
  :meth:`repro.runtime.jobmanager.JobManager.submit` (``lint="warn"|"strict"``)
  and ``python -m repro lint``.
* **Sanitizer** (runtime): :func:`double_run` executes a job twice from the
  same seed, compares rolling schedule hashes, and reports the first
  divergent event; :data:`SANITIZER` checks protocol invariants online
  (FIFO sequences, epoch monotonicity, replay provenance, buffer-pool
  leaks).  Wired into ``python -m repro sanitize``.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.analysis.engine import (
        dedupe_reports,
        lint_callable,
        lint_file,
        lint_graph,
        resolve_callables,
    )
    from repro.analysis.invariants import SANITIZER, RuntimeSanitizer, Violation
    from repro.analysis.report import Finding, LintReport
    from repro.analysis.rules import ALL_RULES, RULES_BY_KEY, Rule
    from repro.analysis.sanitizer import (
        Divergence,
        SanitizeReport,
        ScheduleTracer,
        combined_digest,
        double_run,
        traced_environments,
    )

#: Re-exported name -> defining submodule.  Loaded on first access (PEP 562),
#: so the runtime's import of :mod:`repro.analysis.invariants` does not pull
#: in the linter.
_EXPORTS = {
    **dict.fromkeys(
        ("dedupe_reports", "lint_callable", "lint_file", "lint_graph",
         "resolve_callables"),
        "engine",
    ),
    **dict.fromkeys(("SANITIZER", "RuntimeSanitizer", "Violation"), "invariants"),
    **dict.fromkeys(("Finding", "LintReport"), "report"),
    **dict.fromkeys(("ALL_RULES", "RULES_BY_KEY", "Rule"), "rules"),
    **dict.fromkeys(
        ("Divergence", "SanitizeReport", "ScheduleTracer", "combined_digest",
         "double_run", "traced_environments"),
        "sanitizer",
    ),
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "ALL_RULES",
    "Divergence",
    "Finding",
    "LintReport",
    "Rule",
    "RULES_BY_KEY",
    "RuntimeSanitizer",
    "SANITIZER",
    "SanitizeReport",
    "ScheduleTracer",
    "Violation",
    "combined_digest",
    "double_run",
    "dedupe_reports",
    "lint_callable",
    "lint_file",
    "lint_graph",
    "resolve_callables",
    "traced_environments",
]
