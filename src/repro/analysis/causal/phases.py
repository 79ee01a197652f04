"""ND210: the phase protocol checker.

PR 5's timeline reconstruction (:mod:`repro.trace.timeline`) assumes phase
emissions partition each recovery incident.  Two emission styles are legal:

* **Marker style** — ``phase-begin``/``phase-mark`` events open contiguous
  segments; the next marker closes the previous one.  Functions that only
  open phases (e.g. ``RecoveryCoordinator._restart_job``) have
  nothing to pair and are not checked.
* **Paired style** — a function that emits *any* ``phase-end`` (e.g.
  ``RecoveryCoordinator._step``) has opted into begin/end bracketing, and every
  exit — fall-through, early ``return``, escaping ``raise`` — must leave no
  phase open, or the soaks record a phase that never closes on exactly the
  code path chaos never hit.

The checker abstractly interprets each paired-style function over *phase
stacks*: a state is the set of possible stacks of open phase tokens.
``phase-begin`` pushes the token (the ``phase=`` argument: a string literal,
or the unparsed expression text for dynamic phases, so ``phase=label`` in
the begin matches ``phase=label`` in the end); ``phase-end`` pops and must
match the top of the stack; ``phase-mark`` has no stack effect.  Branches
union their exit states; ``try`` handlers start from the union of every
state reachable in the body; ``finally`` blocks run before propagated
exits.  Explicit ``raise`` statements are exception edges — a ``raise``
inside a ``try`` that has handlers is assumed caught (the in-tree handlers
are broad); implicit exceptions from arbitrary calls are out of scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.analysis.causal.graph import FunctionInfo, ModuleIndex
from repro.analysis.causal.model import (
    CausalFinding,
    FlowStep,
    ND_PHASE,
    dotted_name,
)

_PHASE_EVENTS = ("phase-begin", "phase-end", "phase-mark")

#: A stack of open phase tokens: ((token, opened_at_line), ...).
Stack = Tuple[Tuple[str, int], ...]
#: The abstract state: every possible stack at a program point.
States = FrozenSet[Stack]

_EMPTY: States = frozenset({()})


@dataclass
class _Emission:
    kind: str  # phase-begin | phase-end | phase-mark
    token: str
    lineno: int


def _phase_emission(node: ast.Call) -> Optional[_Emission]:
    """Recognise ``trace.emit(..., "phase-begin", ..., phase=X)`` shapes."""
    name = dotted_name(node.func) or ""
    if not (name == "_emit" or name.endswith(".emit") or name.endswith("._emit")):
        return None
    kind = None
    for arg in node.args:
        if isinstance(arg, ast.Constant) and arg.value in _PHASE_EVENTS:
            kind = arg.value
            break
    if kind is None:
        return None
    token = "?"
    for kw in node.keywords:
        if kw.arg == "phase":
            if isinstance(kw.value, ast.Constant):
                token = str(kw.value.value)
            else:
                token = ast.unparse(kw.value)
            break
    return _Emission(kind, token, getattr(node, "lineno", 0))


@dataclass
class _Exit:
    """A propagated return/raise carrying its possible stacks."""

    kind: str  # "return" | "raise"
    lineno: int
    states: States


@dataclass
class _BlockResult:
    normal: States
    exits: List[_Exit] = field(default_factory=list)
    #: Union of every state reachable at a statement boundary in the block
    #: (the entry set for exception handlers).
    seen: Set[Stack] = field(default_factory=set)


class _PhaseChecker:
    def __init__(self, fn: FunctionInfo, findings: List[CausalFinding]):
        self.fn = fn
        self.findings = findings
        self._seen: Set[Tuple[int, str]] = set()

    # -- reporting ---------------------------------------------------------------

    def _flag(self, lineno: int, message: str, opened_at: int = 0) -> None:
        if (lineno, message) in self._seen:
            return
        self._seen.add((lineno, message))
        path = []
        if opened_at:
            path.append(FlowStep(self.fn.file, opened_at, "phase opened here"))
        path.append(FlowStep(self.fn.file, lineno, message))
        self.findings.append(
            CausalFinding(
                rule=ND_PHASE,
                file=self.fn.file,
                line=lineno,
                message=f"{message} (in {self.fn.qualname})",
                path=tuple(path),
                symbol=self.fn.fid,
            )
        )

    def _check_closed(self, states: States, lineno: int, where: str) -> None:
        for stack in states:
            if stack:
                token, opened = stack[-1]
                self._flag(
                    lineno,
                    f"phase {token!r} (opened line {opened}) still open at {where}",
                    opened_at=opened,
                )

    # -- interpretation ----------------------------------------------------------

    def check(self) -> None:
        result = self._block(self.fn.node.body, _EMPTY, in_try_with_handlers=False)
        end_line = getattr(self.fn.node, "end_lineno", self.fn.lineno)
        self._check_closed(result.normal, end_line, "end of function")
        for exit_ in result.exits:
            where = "return" if exit_.kind == "return" else "escaping raise"
            self._check_closed(exit_.states, exit_.lineno, where)

    def _block(
        self, stmts, states: States, in_try_with_handlers: bool
    ) -> _BlockResult:
        result = _BlockResult(normal=states)
        result.seen |= states
        for stmt in stmts:
            if not result.normal:
                break  # unreachable after return/raise on all paths
            step = self._stmt(stmt, result.normal, in_try_with_handlers)
            result.exits.extend(step.exits)
            result.normal = step.normal
            result.seen |= step.seen
        return result

    def _stmt(
        self, s: ast.stmt, states: States, in_try: bool
    ) -> _BlockResult:
        if isinstance(s, ast.Return):
            return _BlockResult(
                normal=frozenset(),
                exits=[_Exit("return", s.lineno, states)],
                seen=set(states),
            )
        if isinstance(s, ast.Raise):
            if in_try:
                # Assumed caught by an enclosing handler in this function.
                return _BlockResult(normal=frozenset(), seen=set(states))
            return _BlockResult(
                normal=frozenset(),
                exits=[_Exit("raise", s.lineno, states)],
                seen=set(states),
            )
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return _BlockResult(normal=states, seen=set(states))
        if isinstance(s, ast.If):
            body = self._block(s.body, states, in_try)
            orelse = self._block(s.orelse, states, in_try)
            return _BlockResult(
                normal=body.normal | orelse.normal,
                exits=body.exits + orelse.exits,
                seen=body.seen | orelse.seen,
            )
        if isinstance(s, (ast.For, ast.AsyncFor, ast.While)):
            once = self._block(s.body, states, in_try)
            merged = states | once.normal
            twice = self._block(s.body, merged, in_try)
            orelse = self._block(s.orelse, states | twice.normal, in_try)
            return _BlockResult(
                normal=orelse.normal,
                exits=once.exits + twice.exits + orelse.exits,
                seen=once.seen | twice.seen | orelse.seen,
            )
        if isinstance(s, (ast.With, ast.AsyncWith)):
            entry = states
            for item in s.items:
                entry = self._exprs_in(item.context_expr, states=entry)
            return self._block(s.body, entry, in_try)
        if isinstance(s, ast.Try):
            return self._try(s, states, in_try)
        # Plain statement: apply any phase emissions in source order.
        return _BlockResult(
            normal=self._exprs_in(s, states), seen=set(states)
        )

    def _try(self, s: ast.Try, states: States, in_try: bool) -> _BlockResult:
        has_handlers = bool(s.handlers)
        body = self._block(s.body, states, in_try or has_handlers)
        # Handlers can enter from any point inside the body.
        handler_entry: States = frozenset(body.seen) | states
        normal = body.normal
        exits = list(body.exits)
        seen = set(body.seen)
        for handler in s.handlers:
            hres = self._block(handler.body, handler_entry, in_try)
            normal = normal | hres.normal
            exits.extend(hres.exits)
            seen |= hres.seen
        if s.orelse:
            ores = self._block(s.orelse, body.normal, in_try)
            normal = (normal - body.normal) | ores.normal
            exits.extend(ores.exits)
            seen |= ores.seen
        if s.finalbody:
            fres = self._block(s.finalbody, normal, in_try)
            seen |= fres.seen
            # finally runs before every propagated exit too.
            routed: List[_Exit] = []
            for exit_ in exits:
                fexit = self._block(s.finalbody, exit_.states, in_try)
                routed.append(_Exit(exit_.kind, exit_.lineno, fexit.normal))
                routed.extend(fexit.exits)
            exits = routed + fres.exits
            normal = fres.normal
        return _BlockResult(normal=normal, exits=exits, seen=seen)

    def _exprs_in(self, stmt: ast.AST, states: States) -> States:
        emissions = [
            em
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            for em in [_phase_emission(node)]
            if em is not None
        ]
        emissions.sort(key=lambda e: e.lineno)
        for emission in emissions:
            states = self._apply(emission, states)
        return states

    def _apply(self, em: _Emission, states: States) -> States:
        if em.kind == "phase-mark":
            return states
        out: Set[Stack] = set()
        if em.kind == "phase-begin":
            for stack in states:
                out.add(stack + ((em.token, em.lineno),))
            return frozenset(out)
        # phase-end
        for stack in states:
            if not stack:
                self._flag(em.lineno, f"phase-end {em.token!r} with no open phase")
                out.add(stack)
                continue
            token, opened = stack[-1]
            if em.token != token and "?" not in (em.token, token):
                self._flag(
                    em.lineno,
                    f"phase-end {em.token!r} closes mismatched open phase "
                    f"{token!r} (opened line {opened})",
                    opened_at=opened,
                )
            out.add(stack[:-1])
        return frozenset(out)


def _emits_phase_end(fn: FunctionInfo) -> bool:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            emission = _phase_emission(node)
            if emission is not None and emission.kind == "phase-end":
                return True
    return False


def analyze_phases(index: ModuleIndex) -> List[CausalFinding]:
    """Check every paired-style function in the tree."""
    findings: List[CausalFinding] = []
    for fn in index.iter_functions():
        if not _emits_phase_end(fn):
            continue  # marker style (or no phase emissions at all)
        _PhaseChecker(fn, findings).check()
    findings.sort(key=lambda f: (f.file, f.line))
    return findings
