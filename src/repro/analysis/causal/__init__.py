"""repro.analysis.causal — the static causal-coverage analyzer.

It proves, for a source tree or one file, the property Clonos' exactly-once
guarantee rests on: every nondeterminism source — in the framework or in a
UDF, a lambda, a key selector, a closure — flows through determinant
logging before it reaches replayable state or emitted output, every
recorded determinant is actually consumed on replay, and the recovery
coordinators' phase emissions stay well-nested on every code path.  Rules:

* **ND201** — unlogged nondeterminism reaches replayable state.
* **ND202** — unlogged nondeterminism reaches sink output.
* **ND203** — dead determinant: recorded but never replayed.
* **ND210** — phase-begin/phase-end not well-nested on some exit edge.

A finding whose line carries ``# ndlint: disable=<rule>`` is reported as
suppressed and does not fail the gate.

Entry point::

    report = analyze_tree()          # scan src/repro
    report.ok                        # gate condition
    print(report.render())           # human report
    report.to_json()                 # machine report

The analyzer parses sources from disk — it never imports or executes the
code under analysis — so it is equally happy scanning synthetic trees in
tests (pass ``root``/``package``/``consumer_suffixes`` explicitly).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.causal.allowlist import (
    CAUSAL_ALLOWLIST,
    Exemption,
    exemption_for,
    partition,
)
from repro.analysis.causal.deadness import (
    REPLAY_CONSUMER_SUFFIXES,
    analyze_deadness,
)
from repro.analysis.causal.graph import ModuleIndex
from repro.analysis.causal.model import (
    CAUSAL_RULES,
    CausalFinding,
    FlowStep,
    ND_DEAD,
    ND_OUTPUT,
    ND_PHASE,
    ND_STATE,
)
from repro.analysis.causal.phases import analyze_phases
from repro.analysis.causal.taint import analyze_taint

__all__ = [
    "CAUSAL_ALLOWLIST",
    "CAUSAL_RULES",
    "CausalFinding",
    "CausalReport",
    "Exemption",
    "FlowStep",
    "ND_DEAD",
    "ND_OUTPUT",
    "ND_PHASE",
    "ND_STATE",
    "analyze_tree",
    "exemption_for",
]


@dataclass
class CausalReport:
    """The result of one analyzer run over one source tree."""

    root: str
    findings: List[CausalFinding] = field(default_factory=list)
    exempted: List[Tuple[CausalFinding, Exemption]] = field(default_factory=list)
    suppressed: List[CausalFinding] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule.rule_id] = out.get(finding.rule.rule_id, 0) + 1
        return dict(sorted(out.items()))

    def _rel(self, path: str) -> str:
        base = self.root if os.path.isdir(self.root) else os.path.dirname(self.root)
        try:
            return os.path.relpath(path, base)
        except ValueError:
            return path

    def _render_finding(self, finding: CausalFinding) -> str:
        lines = [
            f"  {finding.rule.rule_id} {finding.rule.name} "
            f"{self._rel(finding.file)}:{finding.line}",
            f"      {finding.message}",
        ]
        for i, step in enumerate(finding.path):
            lines.append(
                f"      {i + 1}. {self._rel(step.file)}:{step.line}  "
                f"{step.description}"
            )
        return "\n".join(lines)

    def render(self) -> str:
        lines = [f"causal-coverage analysis of {self.root}"]
        for key, value in sorted(self.stats.items()):
            lines.append(f"  {key}: {value}")
        if self.parse_errors:
            lines.append(f"parse errors ({len(self.parse_errors)}):")
            lines.extend(f"  {err}" for err in self.parse_errors)
        if self.findings:
            lines.append(f"findings ({len(self.findings)}):")
            lines.extend(self._render_finding(f) for f in self.findings)
        if self.exempted:
            lines.append(f"exempted ({len(self.exempted)}):")
            for finding, exemption in self.exempted:
                lines.append(
                    f"  {finding.rule.rule_id} "
                    f"{self._rel(finding.file)}:{finding.line} — "
                    f"{exemption.reason}"
                )
        if self.suppressed:
            lines.append(f"suppressed ({len(self.suppressed)}):")
            lines.extend(
                f"  {f.rule.rule_id} {self._rel(f.file)}:{f.line}"
                for f in self.suppressed
            )
        lines.append("status: " + ("clean" if self.ok else "FINDINGS"))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "root": self.root,
            "ok": self.ok,
            "counts": self.counts(),
            "stats": self.stats,
            "parse_errors": self.parse_errors,
            "findings": [
                {
                    "rule": f.rule.rule_id,
                    "name": f.rule.name,
                    "file": self._rel(f.file),
                    "line": f.line,
                    "message": f.message,
                    "symbol": f.symbol,
                    "path": [
                        {
                            "file": self._rel(step.file),
                            "line": step.line,
                            "description": step.description,
                        }
                        for step in f.path
                    ],
                }
                for f in self.findings
            ],
            "exempted": [
                {
                    "rule": f.rule.rule_id,
                    "file": self._rel(f.file),
                    "line": f.line,
                    "reason": e.reason,
                }
                for f, e in self.exempted
            ],
            "suppressed": [
                {"rule": f.rule.rule_id, "file": self._rel(f.file), "line": f.line}
                for f in self.suppressed
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _default_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def analyze_tree(
    root: Optional[Path] = None,
    package: str = "repro",
    consumer_suffixes: Tuple[str, ...] = REPLAY_CONSUMER_SUFFIXES,
    use_allowlist: bool = True,
) -> CausalReport:
    """Run the full analyzer (taint + deadness + phases) over ``root``, a
    directory or one ``.py`` file."""
    root = Path(root) if root is not None else _default_root()
    started = time.perf_counter()
    index = ModuleIndex(root, package=package)
    taint_findings, iterations = analyze_taint(index)
    dead_findings = analyze_deadness(index, consumer_suffixes=consumer_suffixes)
    phase_findings = analyze_phases(index)
    all_findings = sorted(
        taint_findings + dead_findings + phase_findings,
        key=lambda f: (f.file, f.line, f.rule.rule_id),
    )
    suppressed = [f for f in all_findings if f.suppressed]
    all_findings = [f for f in all_findings if not f.suppressed]
    if use_allowlist:
        live, exempted = partition(all_findings)
    else:
        live, exempted = all_findings, []
    report = CausalReport(
        root=str(root),
        findings=live,
        exempted=exempted,
        suppressed=suppressed,
        parse_errors=list(index.parse_errors),
    )
    report.stats = {
        "modules": len(index.modules),
        "functions": len(index.functions),
        "fixpoint_iterations": iterations,
        "wall_clock_s": round(time.perf_counter() - started, 4),
    }
    return report
