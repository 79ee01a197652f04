#!/usr/bin/env python3
"""Compare two reports of ``bench/run.py``: ``compare.py A.json B.json``.

A is the reference (the parent commit, or the first of two runs of one
commit), B the candidate.  Per workload and end-to-end metric it prints both
values, the relative difference (positive = B worse), the metric's bound from
BENCHMARK.json and a verdict:

* ``same`` / ``worse`` / ``better`` — host-clock metrics against their bound;
* ``unresolved`` — a run's own quartile spread exceeds the bound, so the
  runs cannot tell a change of that size from noise;
* ``mismatch`` — a simulated value or a layer count differs at all: those
  are pure functions of tree and seed.

Exit status is 1 on any ``worse`` or ``mismatch``, so running it on two
reports of the same commit is the benchmark's repeatability check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

def _is_simulated(metric: str) -> bool:
    return metric.startswith("sim_")


def _spread(cell: Dict[str, Any]) -> Optional[float]:
    """The run's own quartile spread as a share of its median, where the
    report kept the samples' quartiles."""
    if "q1" in cell:
        return (cell["q3"] - cell["q1"]) / cell.get("median", cell["value"])
    return None


def judge(metric: str, a: Dict[str, Any], b: Dict[str, Any],
          declared: Dict[str, Dict[str, Any]]) -> Tuple[float, Optional[float], str]:
    """(relative difference with positive = worse, bound, verdict)."""
    spec = declared[metric]
    sign = -1.0 if spec["better"] == "higher" else 1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if _is_simulated(metric):
        return worse_by, None, "same" if a["value"] == b["value"] else "mismatch"
    bound = spec["bound"]
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        return worse_by, bound, "unresolved"
    if worse_by > bound:
        return worse_by, bound, "worse"
    if worse_by < -bound:
        return worse_by, bound, "better"
    return worse_by, bound, "same"


def _is_host_seconds(metric: str, unit: str) -> bool:
    """Host-clock layer figures are reported, never compared for equality
    (the same rule as ``tracing.is_host_time``, which needs ``repro``)."""
    return unit == "s" and not metric.startswith(("ft.recovery.phase_sim_s.", "sim_"))


def layer_mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Per-layer entries, other than host seconds, that differ at all."""
    differing = []
    for metric in sorted(set(a) | set(b)):
        cell_a, cell_b = a.get(metric), b.get(metric)
        if cell_a is None or cell_b is None:
            differing.append(metric)
        elif (not _is_host_seconds(metric, cell_a["unit"])
              and cell_a["value"] != cell_b["value"]):
            differing.append(metric)
    return differing


def compare(report_a: Dict[str, Any], report_b: Dict[str, Any],
            contract: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The printed lines and whether anything is worse or mismatched."""
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    lines: List[str] = []
    failed = False
    for name in sorted(set(report_a["workloads"]) & set(report_b["workloads"])):
        entry_a, entry_b = report_a["workloads"][name], report_b["workloads"][name]
        lines.append(f"== {name} ==")
        for metric, cell_a in entry_a.get("end_to_end", {}).items():
            cell_b = entry_b["end_to_end"][metric]
            worse_by, bound, verdict = judge(metric, cell_a, cell_b, declared)
            failed = failed or verdict in ("worse", "mismatch")
            shown_bound = f"{bound:.0%}" if bound is not None else "exact"
            lines.append(
                f"  {metric:34s} {cell_a['value']:14.6g} {cell_b['value']:14.6g} "
                f"{cell_a['unit']:6s} {worse_by:+8.2%}  bound {shown_bound:>5s}  {verdict}"
            )
        if entry_a.get("failed_share") or entry_b.get("failed_share"):
            failed = True
            lines.append(
                f"  failed_share: {entry_a.get('failed_share')} vs "
                f"{entry_b.get('failed_share')}  FAILED"
            )
        if "per_layer" in entry_a and "per_layer" in entry_b:
            differing = layer_mismatches(entry_a["per_layer"], entry_b["per_layer"])
            failed = failed or bool(differing)
            total = len(entry_a["per_layer"])
            lines.append(
                f"  layer counts: {total - len(differing)} of {total} compared entries "
                + ("identical" if not differing else f"match; mismatch in {differing}")
            )
    return lines, failed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(path).read_text()) for path in argv)
    if report_a["seed"] != report_b["seed"]:
        print("compare: the reports used different seeds; simulated values "
              "are only comparable for one seed", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, failed = compare(report_a, report_b, contract)
    print(f"{'metric':36s} {'A':>14s} {'B':>14s} {'unit':6s} {'B worse':>8s}")
    print("\n".join(lines))
    print("verdict: " + ("WORSE or MISMATCH" if failed else "same within bounds"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
