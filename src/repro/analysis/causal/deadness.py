"""ND203: determinant kinds that are recorded but never replayed.

A determinant that is appended to the causal log but never consumed by the
replay machinery is pure overhead — worse, it silently suggests a
nondeterminism source is covered when recovery in fact ignores it.  The
check is structural:

* **Recorded** — the determinant class is constructed anywhere outside its
  defining module (constructors in the defining module and in tests don't
  count as production recording sites).
* **Replayed** — the class name is referenced (outside ``import``
  statements), or its ``kind`` string appears as a literal, in one of the
  *replay consumer* modules: the recovery manager that splits bundles into
  control/value queues, the causal services that answer calls from value
  determinants, the task loop that executes control determinants, and the
  causal-log/writer layer that applies queue-log cuts.

A class that is recorded but not replayed is dead (ND203); the finding
anchors at the recording site so the fix — consume it or stop logging it —
is one hop away.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.causal.graph import ModuleIndex, ModuleInfo
from repro.analysis.causal.model import (
    CausalFinding,
    FlowStep,
    ND_DEAD,
    dotted_name,
)

#: Path suffixes of the modules whose code *consumes* determinants during
#: replay.  A kind referenced in none of them is never replayed.
REPLAY_CONSUMER_SUFFIXES: Tuple[str, ...] = (
    "core/recovery.py",
    "core/services.py",
    "core/causal_log.py",
    "runtime/task.py",
    "net/writer.py",
)


@dataclass
class DeterminantClass:
    name: str
    kind: Optional[str]
    module: str
    file: str
    lineno: int


def _kind_of(node: ast.ClassDef) -> Optional[str]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "kind":
                    if isinstance(stmt.value, ast.Constant):
                        return str(stmt.value.value)
    return None


def _determinant_classes(index: ModuleIndex) -> List[DeterminantClass]:
    out: List[DeterminantClass] = []
    for module in index.modules.values():
        for cls in module.classes.values():
            is_det = cls.name != "Determinant" and (
                cls.name.endswith("Determinant")
                or any(b.rsplit(".", 1)[-1] == "Determinant" for b in cls.base_names)
            )
            if is_det:
                out.append(
                    DeterminantClass(
                        name=cls.name,
                        kind=_kind_of(cls.node),
                        module=module.name,
                        file=module.path,
                        lineno=cls.node.lineno,
                    )
                )
    return out


def _recording_sites(
    index: ModuleIndex, classes: List[DeterminantClass]
) -> Dict[str, Tuple[str, int]]:
    """Class name -> first construction site outside its defining module."""
    defining = {cls.name: cls.module for cls in classes}
    names = set(defining)
    sites: Dict[str, Tuple[str, int]] = {}
    for module in index.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf in names and module.name != defining[leaf]:
                sites.setdefault(leaf, (module.path, node.lineno))
    return sites


def _consumer_vocabulary(
    index: ModuleIndex, consumer_suffixes: Tuple[str, ...]
) -> Tuple[Set[str], Set[str]]:
    """(identifiers referenced outside imports, string literals) in consumers."""
    identifiers: Set[str] = set()
    literals: Set[str] = set()
    for module in index.modules.values():
        normalized = module.path.replace("\\", "/")
        if not any(normalized.endswith(s) for s in consumer_suffixes):
            continue
        imported_lines: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                end = getattr(node, "end_lineno", node.lineno)
                imported_lines.update(range(node.lineno, end + 1))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name) and node.lineno not in imported_lines:
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    return identifiers, literals


def analyze_deadness(
    index: ModuleIndex,
    consumer_suffixes: Tuple[str, ...] = REPLAY_CONSUMER_SUFFIXES,
) -> List[CausalFinding]:
    classes = _determinant_classes(index)
    if not classes:
        return []
    sites = _recording_sites(index, classes)
    identifiers, literals = _consumer_vocabulary(index, consumer_suffixes)
    findings: List[CausalFinding] = []
    for cls in classes:
        site = sites.get(cls.name)
        if site is None:
            continue  # never recorded: nothing piggybacks, nothing to replay
        replayed = cls.name in identifiers or (
            cls.kind is not None and cls.kind in literals
        )
        if replayed:
            continue
        file, lineno = site
        findings.append(
            CausalFinding(
                rule=ND_DEAD,
                file=file,
                line=lineno,
                message=(
                    f"{cls.name} (kind={cls.kind!r}) is recorded here but no "
                    "replay consumer ever references it"
                ),
                path=(
                    FlowStep(cls.file, cls.lineno, f"{cls.name} defined"),
                    FlowStep(file, lineno, "recorded into the causal log"),
                    FlowStep(
                        file,
                        lineno,
                        "no reference in " + ", ".join(consumer_suffixes),
                    ),
                ),
                symbol=cls.name,
            )
        )
    findings.sort(key=lambda f: (f.file, f.line))
    return findings
