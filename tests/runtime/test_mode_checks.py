"""What a fault-tolerance mode decides is its row in ``config.POLICIES``; the
runtime, the recovery coordinator and the chaos engine read the row, never
the mode.  A comparison against a mode anywhere under those packages is a
second place the same decision is made, and the two drift."""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.rules import dotted_name
from repro.config import POLICIES, RecoveryScope
from repro.config import FaultToleranceMode as Mode

SRC = Path(repro.__file__).resolve().parent
PACKAGES = ("ft", "runtime", "chaos")

#: mode -> (scope, fifo_strict).
ROWS = {
    Mode.NONE: (None, True),
    Mode.GLOBAL_ROLLBACK: (RecoveryScope.JOB, True),
    Mode.CLONOS: (RecoveryScope.TASK, True),
    Mode.GAP_RECOVERY: (RecoveryScope.TASK, False),
    Mode.DIVERGENT: (RecoveryScope.TASK, False),
    Mode.SEEP: (RecoveryScope.TASK, False),
}


def _is_mode(node: ast.AST) -> bool:
    """``FaultToleranceMode.<member>`` or a job config's ``mode``."""
    name = dotted_name(node) or ""
    if name == "config.mode" or name.endswith(".config.mode"):
        return True
    return name.rpartition(".")[0].endswith("FaultToleranceMode")


def mode_comparisons(source: str, filename: str = "<src>"):
    """``file:line`` of every comparison with a mode operand."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Compare)
        and any(
            _is_mode(part)
            for operand in [node.left, *node.comparators]
            for part in ast.walk(operand)
        )
    ]


def test_no_mode_comparisons_under_ft_runtime_chaos():
    found = [
        hit
        for package in PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        for hit in mode_comparisons(path.read_text(), f"{package}/{path.name}")
    ]
    assert found == [], f"compare the policy row, not the mode: {found}"


@pytest.mark.parametrize(
    "planted",
    [
        "if self.config.mode is FaultToleranceMode.GLOBAL_ROLLBACK: pass",
        "x = jm.config.mode == FaultToleranceMode.NONE",
        "ok = mode in (FaultToleranceMode.CLONOS, FaultToleranceMode.SEEP)",
        "ok = config.mode != other",
    ],
)
def test_drift_check_sees_a_planted_comparison(planted):
    assert mode_comparisons(planted)


def test_every_mode_has_a_policy_row_with_its_scope_and_fifo_strictness():
    assert set(POLICIES) == set(Mode)
    assert {
        mode: (policy.scope, policy.fifo_strict) for mode, policy in POLICIES.items()
    } == ROWS
