"""``repro.analysis``: the static causal-coverage analyzer + the runtime
determinism sanitizer.

Clonos' exactly-once guarantee holds only if *every* source of nondeterminism
in a UDF is intercepted by the causal services layer and logged as a
determinant (§4).  This package converts that assumption into an enforced
property:

* **Analyzer** (static, :mod:`repro.analysis.causal`): follows every
  nondeterminism source — wall-clock reads, module-level RNG, direct
  external calls, ambient reads, hash-ordered iteration, closure state — in
  the framework, the Nexmark queries and the examples to the replayable
  state or output it reaches without a determinant (ND201/ND202), and
  checks determinant liveness (ND203) and the recovery-phase protocol
  (ND210).  Wired into ``python -m repro verify-static``.
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
    from repro.analysis.invariants import SANITIZER, RuntimeSanitizer, Violation
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
#: in the sanitizer.
_EXPORTS = {
    **dict.fromkeys(("SANITIZER", "RuntimeSanitizer", "Violation"), "invariants"),
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
    "Divergence",
    "RuntimeSanitizer",
    "SANITIZER",
    "SanitizeReport",
    "ScheduleTracer",
    "Violation",
    "combined_digest",
    "double_run",
    "traced_environments",
]
