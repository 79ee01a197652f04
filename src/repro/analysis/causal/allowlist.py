"""The causal-analyzer allowlist: justified exemptions, each with a reason.

The exemption set is *seeded, named, and minimal*.  Every entry must carry a
non-empty reason string — enforced at construction, so an unreasoned
exemption cannot even be written — and the minimality regression test pins
the exact contents of :data:`CAUSAL_ALLOWLIST`, so growing it is a reviewed
decision, not a drive-by.

An entry exempts findings of one rule in files matching one path suffix
(optionally narrowed to a symbol substring).  Matching findings are moved
from the report's ``findings`` to its ``exempted`` list — still visible in
the report, never failing the gate.

The current tree needs **no** exemptions.  The one sanctioned
nondeterminism source, the sim profiler's ``time.perf_counter`` reads in
``repro/trace/profiler.py``, attributes wall-clock self-time to sim
processes; the readings never reach replayable state, dataflow output or a
deterministic export, so the analyzer is clean on them without help.  The
seeded set is therefore empty — the strongest statement of the coverage
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.causal.model import CausalFinding


@dataclass(frozen=True)
class Exemption:
    """One sanctioned finding pattern.  ``reason`` is mandatory and
    non-empty: an exemption that cannot say why it exists is a bug."""

    rule_id: str
    path_suffix: str
    #: Substring of the finding's symbol ("" matches any symbol).
    symbol: str
    reason: str

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise ValueError(
                f"allowlist entry ({self.rule_id}, {self.path_suffix!r}) "
                "must carry a non-empty reason"
            )

    def matches(self, finding: CausalFinding) -> bool:
        if finding.rule.rule_id != self.rule_id:
            return False
        normalized = finding.file.replace("\\", "/")
        if not normalized.endswith(self.path_suffix):
            return False
        return self.symbol in finding.symbol


#: The seeded exemptions.  Keep this tuple minimal — the regression test in
#: tests/analysis/causal/test_allowlist.py pins its exact contents.
CAUSAL_ALLOWLIST: Tuple[Exemption, ...] = ()


def exemption_for(
    finding: CausalFinding,
    allowlist: Tuple[Exemption, ...] = CAUSAL_ALLOWLIST,
) -> Optional[Exemption]:
    for exemption in allowlist:
        if exemption.matches(finding):
            return exemption
    return None


def partition(
    findings: List[CausalFinding],
    allowlist: Tuple[Exemption, ...] = CAUSAL_ALLOWLIST,
) -> Tuple[List[CausalFinding], List[Tuple[CausalFinding, Exemption]]]:
    """Split findings into (live, exempted-with-reason)."""
    live: List[CausalFinding] = []
    exempted: List[Tuple[CausalFinding, Exemption]] = []
    for finding in findings:
        exemption = exemption_for(finding, allowlist)
        if exemption is None:
            live.append(finding)
        else:
            exempted.append((finding, exemption))
    return live, exempted
