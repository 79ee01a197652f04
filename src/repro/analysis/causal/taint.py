"""Flow-sensitive, interprocedural taint analysis: sources → sinks.

The property proved (over-approximately): *no nondeterminism source reaches
replayable state (ND201) or emitted output (ND202) without passing a
determinant-recording call*.  The machinery:

**Local scan.**  Each function body is interpreted statement-by-statement in
textual order.  The environment maps local names to *taints* — dicts from
category (:data:`~repro.analysis.causal.model.RNG`, ``clock``, …) to a short
origin chain of :class:`~repro.analysis.causal.model.FlowStep` hops.  Source
calls introduce taint; expression forms union the taint of their parts;
attribute/subscript access inherits the root name's taint.

**Sanitizers clear by category.**  Appending to the causal log (or
constructing a determinant) covers the *decision*, not just the value passed:
once an ``OrderDeterminant`` is logged, everything derived from that select
order replays identically.  Sanitizing therefore clears the matched
categories function-wide from the clearing point on (a later source
re-taints).  Sanitizers merge *optimistically* across branches — a
determinant logged under ``if self.causal is not None:`` counts, because the
``None`` branch is the deliberately-unlogged baseline mode, not a missed
flow.  Sources merge pessimistically (a source on any branch taints).

**Control dependence.**  A sink (or a return) under a branch whose test is
tainted carries the test's taint: ``if random.random() < 0.5:
ctx.collect(v)`` emits a nondeterministic *decision*.

**Closures and UDFs.**  A nested def or lambda that mutates a variable of
an enclosing function (``nonlocal``, item/attribute stores, ``.append`` and
the other :data:`~repro.analysis.causal.model.MUTATORS`) keeps state across
records that no checkpoint holds: reading it is a ``captured_state``
source.  The return value of a UDF (see
:mod:`repro.analysis.causal.graph`) is output.

**Interprocedural fixpoint.**  Every function also runs with pseudo-taints
(``param:<i>``) seeded on its parameters, producing a summary: which
categories its return value carries, which parameters flow to its return,
which parameters reach a sink inside it, which parameters it sanitizes, and
which categories calling it sanitizes outright.  Summaries start empty and
the scan repeats until they stabilise; findings are collected on one final
pass.  Call edges come from :class:`~repro.analysis.causal.graph.ModuleIndex`
resolution; *unresolved* calls conservatively propagate argument taint to
their result but create no edges.

Out of scope, by design: dict iteration (insertion-ordered since 3.7),
iterating a set held in a variable (only set literals, comprehensions and
``set()``/``frozenset()`` calls are recognised at the loop), taint through
``self`` attributes across methods (the pattern sinks and the service-call
discipline cover the in-tree cross-object flows).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.causal.graph import FunctionInfo, ModuleIndex, ModuleInfo
from repro.analysis.causal.model import (
    AMBIENT,
    AMBIENT_CALLS,
    AMBIENT_PREFIXES,
    CANONICALIZERS,
    CAPTURED,
    CLOCK,
    CLOCK_CALLS,
    CausalFinding,
    DETERMINANT_CATEGORIES,
    EXTERNAL,
    EXTERNAL_CALLS,
    EXTERNAL_PREFIXES,
    EXTERNAL_SUFFIXES,
    FIXES,
    FlowStep,
    HASH_ORDER,
    HASH_ORDER_CALLS,
    LOG_APPEND_SUFFIXES,
    MUTATORS,
    ND_OUTPUT,
    ND_STATE,
    OUTPUT_SINK,
    OUTPUT_SINK_SUFFIXES,
    RNG,
    RNG_CALLS,
    RNG_PREFIXES,
    SELECT_ORDER,
    SELECT_ORDER_SUFFIXES,
    SEQUENCERS,
    SERVICE_CALL_SUFFIXES,
    SET_CTORS,
    SNAPSHOT_DEFS,
    STATE_RECEIVER_TOKENS,
    STATE_SINK,
    STATE_SINK_CTORS,
    STATE_SINK_SUFFIXES,
    UNORDERED_CALLS,
    UNSEEDED_RNG_CTORS,
    dotted_name,
    match_call,
    match_prefix,
    match_suffix,
    suppresses,
)

ALL_CATS: FrozenSet[str] = frozenset(
    {RNG, CLOCK, HASH_ORDER, SELECT_ORDER, AMBIENT, EXTERNAL, CAPTURED}
)

#: Trace/observability receivers whose ``.emit`` is an event-bus append, not
#: dataflow output.
_NON_OUTPUT_RECEIVER_TOKENS = ("trace",)

_SINK_RULE = {STATE_SINK: ND_STATE, OUTPUT_SINK: ND_OUTPUT}
_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)
_MAX_ITERATIONS = 10
_MAX_CHAIN = 8

#: One taint: category -> representative origin chain.
Taint = Dict[str, Tuple[FlowStep, ...]]


def _union(*taints: Taint) -> Taint:
    out: Taint = {}
    for taint in taints:
        for cat, chain in taint.items():
            out.setdefault(cat, chain)
    return out


@dataclass
class Summary:
    """What callers need to know about one function."""

    #: Category -> origin chain the return value may carry.
    returns: Dict[str, Tuple[FlowStep, ...]] = field(default_factory=dict)
    #: Parameter indices whose taint flows into the return value.
    param_to_return: Set[int] = field(default_factory=set)
    #: Parameter index -> (sink kind, sink step) when the parameter's taint
    #: reaches a sink inside this function (possibly transitively).
    param_to_sink: Dict[int, Tuple[str, FlowStep]] = field(default_factory=dict)
    #: Parameter index -> categories the function logs for that argument.
    param_sanitized: Dict[int, Set[str]] = field(default_factory=dict)
    #: Categories unconditionally covered by calling this function.
    sanitizes: Set[str] = field(default_factory=set)

    def fingerprint(self):
        return (
            frozenset(self.returns),
            frozenset(self.param_to_return),
            frozenset((k, v[0]) for k, v in self.param_to_sink.items()),
            frozenset(
                (k, frozenset(v)) for k, v in self.param_sanitized.items()
            ),
            frozenset(self.sanitizes),
        )


class _Scanner:
    """One pass over one function body."""

    def __init__(
        self,
        index: ModuleIndex,
        module: ModuleInfo,
        fn: FunctionInfo,
        summaries: Dict[str, Summary],
    ):
        self.index = index
        self.module = module
        self.fn = fn
        self.summaries = summaries
        self.summary = Summary()
        self.findings: List[CausalFinding] = []
        self._seen_findings: Set[Tuple[str, str, int, str]] = set()
        #: name -> taint.
        self.env: Dict[str, Taint] = {}
        #: Currently-covered categories (real and ``param:<i>`` pseudo).
        self.sanitized: Set[str] = set()
        #: Taint of the branch tests enclosing the current statement.
        self.control: Taint = {}
        for name, line in _captured(fn).items():
            self.env[name] = {
                CAPTURED: (
                    FlowStep(
                        fn.file,
                        line,
                        f"captured {name!r} mutated across records "
                        f"in {fn.qualname}()",
                    ),
                )
            }
        self._in_snapshot_class = self._class_has_snapshot()
        for i, param in enumerate(fn.params):
            if param in ("self", "cls"):
                continue
            self.env[param] = {
                f"param:{i}": (
                    FlowStep(
                        fn.file, fn.lineno, f"parameter {param!r} of {fn.name}()"
                    ),
                )
            }

    def _class_has_snapshot(self) -> bool:
        if self.fn.class_name is None:
            return False
        cls = self.module.classes.get(self.fn.class_name)
        if cls is None:
            return False
        pool = [cls] + self.index.ancestors_of(cls)
        return any(
            name in SNAPSHOT_DEFS for c in pool for name in c.methods
        )

    def run(self) -> None:
        node = self.fn.node
        if isinstance(node, ast.Lambda):
            self._return_value(node.body)
        else:
            self._exec(node.body)

    # -- bookkeeping --------------------------------------------------------------

    def _active(self, taint: Taint) -> Taint:
        return {c: ch for c, ch in taint.items() if c not in self.sanitized}

    def _step(self, node: ast.AST, description: str) -> FlowStep:
        return FlowStep(self.fn.file, getattr(node, "lineno", 0), description)

    def _sanitize(self, cats: Set[str], taints: List[Taint]) -> None:
        self.sanitized |= cats
        self.summary.sanitizes |= cats & ALL_CATS
        for taint in taints:
            for cat in taint:
                if cat.startswith("param:"):
                    self.sanitized.add(cat)
                    idx = int(cat.split(":", 1)[1])
                    self.summary.param_sanitized.setdefault(idx, set()).update(
                        cats & ALL_CATS or ALL_CATS
                    )

    def _finding(self, rule, node: ast.AST, chain: Tuple[FlowStep, ...], cat: str) -> None:
        line = getattr(node, "lineno", 0)
        # A disable comment anywhere on the flagged construct waives it.
        end = getattr(node, "end_lineno", None) or line
        suppressed = any(
            suppresses(text, rule) for text in self.module.lines[line - 1 : end]
        )
        message = (
            f"{cat} nondeterminism reaches "
            f"{'replayable state' if rule is ND_STATE else 'sink output'} "
            f"without a determinant (in {self.fn.qualname}); {FIXES[cat]}"
        )
        key = (rule.rule_id, self.fn.file, line, message)
        if key in self._seen_findings:
            return
        self._seen_findings.add(key)
        self.findings.append(
            CausalFinding(
                rule=rule,
                file=self.fn.file,
                line=line,
                message=message,
                path=chain[:_MAX_CHAIN],
                symbol=self.fn.fid,
                suppressed=suppressed,
            )
        )

    def _sink(self, kind: str, node: ast.Call, taints: List[Taint], name: str) -> None:
        step = self._step(node, f"{kind} sink {name}()")
        for taint in taints + [self.control]:
            for cat, chain in self._active(taint).items():
                if cat.startswith("param:"):
                    idx = int(cat.split(":", 1)[1])
                    self.summary.param_to_sink.setdefault(idx, (kind, step))
                else:
                    self._finding(_SINK_RULE[kind], node, chain + (step,), cat)

    # -- statements ---------------------------------------------------------------

    def _exec(self, stmts) -> None:
        outer = self.control
        for stmt in stmts:
            self._stmt(stmt)
        self.control = outer

    def _stmt(self, s: ast.stmt) -> None:
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are out of scope
        if isinstance(s, ast.Return):
            self._return(s)
        elif isinstance(s, ast.Assign):
            taint = self._eval(s.value)
            for target in s.targets:
                self._bind(target, taint, s)
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self._bind(s.target, self._eval(s.value), s)
        elif isinstance(s, ast.AugAssign):
            taint = self._eval(s.value)
            root = _root_name(s.target)
            if root is not None:
                self.env[root] = _union(self.env.get(root, {}), taint)
        elif isinstance(s, ast.Expr):
            self._eval(s.value)
        elif isinstance(s, (ast.If, ast.While)):
            outer = self.control
            self.control = _union(outer, self._active(self._eval(s.test)))
            for _ in range(1 if isinstance(s, ast.If) else 2):
                self._exec(s.body)
            self._exec(s.orelse)
            # A branch that leaves the block decides whether the rest runs.
            if not any(b and isinstance(b[-1], _EXITS) for b in (s.body, s.orelse)):
                self.control = outer
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            taint = self._iter(s.iter)
            for _ in range(2):  # propagate loop-carried taint
                self._bind(s.target, taint, s)
                self._exec(s.body)
            self._exec(s.orelse)
        elif isinstance(s, ast.Try):
            self._exec(s.body)
            for handler in s.handlers:
                self._exec(handler.body)
            self._exec(s.orelse)
            self._exec(s.finalbody)
        elif isinstance(s, (ast.With, ast.AsyncWith)):
            for item in s.items:
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, s)
            self._exec(s.body)
        elif isinstance(s, ast.Raise):
            if s.exc is not None:
                self._eval(s.exc)
        elif isinstance(s, ast.Assert):
            self._eval(s.test)
        elif isinstance(s, ast.Delete):
            for target in s.targets:
                root = _root_name(target)
                if root is not None:
                    self.env.pop(root, None)
        # Pass/Break/Continue/Import/Global/Nonlocal: no taint effect.

    def _return(self, s: ast.Return) -> None:
        if s.value is not None:
            self._return_value(s.value)

    def _return_value(self, value: ast.expr) -> None:
        # The framework iterates what a UDF returns.
        evaluate = self._iter if self.fn.udf else self._eval
        taint = _union(evaluate(value), self.control)
        snapshot = self.fn.name in SNAPSHOT_DEFS
        for cat, chain in self._active(taint).items():
            if cat.startswith("param:"):
                idx = int(cat.split(":", 1)[1])
                self.summary.param_to_return.add(idx)
                if snapshot:
                    self.summary.param_to_sink.setdefault(
                        idx,
                        (
                            STATE_SINK,
                            self._step(value, f"{self.fn.qualname}() snapshot return"),
                        ),
                    )
                continue
            step = self._step(value, f"returned from {self.fn.qualname}()")
            self.summary.returns.setdefault(cat, chain + (step,))
            if snapshot:
                sink = self._step(
                    value, f"persisted via {self.fn.qualname}() snapshot return"
                )
                self._finding(ND_STATE, value, chain + (sink,), cat)
            elif self.fn.udf:
                sink = self._step(
                    value, f"output: return value of UDF {self.fn.qualname}()"
                )
                self._finding(ND_OUTPUT, value, chain + (sink,), cat)

    def _bind(self, target: ast.AST, taint: Taint, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.env[target.id] = dict(taint)
            else:
                self.env.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, stmt)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, taint, stmt)
            return
        root = _root_name(target)
        if root is None:
            return
        # Writing a tainted value into an attribute of a snapshot-bearing
        # object persists it: the next checkpoint images it.
        if (
            isinstance(target, ast.Attribute)
            and root == "self"
            and self._in_snapshot_class
        ):
            step = self._step(
                stmt, f"stored on self.{target.attr} (snapshot-bearing class)"
            )
            for cat, chain in self._active(taint).items():
                if cat.startswith("param:"):
                    self.summary.param_to_sink.setdefault(
                        int(cat.split(":", 1)[1]), (STATE_SINK, step)
                    )
                else:
                    self._finding(ND_STATE, stmt, chain + (step,), cat)
        # Mutating obj[...] / obj.attr taints obj itself.
        if taint and root != "self":
            self.env[root] = _union(self.env.get(root, {}), taint)

    # -- expressions --------------------------------------------------------------

    def _eval(self, node: Optional[ast.AST]) -> Taint:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return {}
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, (ast.Set, ast.SetComp)) and self.fn.name in SNAPSHOT_DEFS:
            return self._source(
                node, HASH_ORDER, "set persisted by a snapshot method",
                self._children(node),
            )
        if isinstance(node, ast.Attribute) and match_prefix(
            dotted_name(node), AMBIENT_PREFIXES
        ):
            return self._source(
                node, AMBIENT, f"ambient environment read {dotted_name(node)}", {}
            )
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            root = _root_name(node)
            taint = dict(self.env.get(root, {})) if root else {}
            if isinstance(node, ast.Subscript):
                taint = _union(taint, self._eval(node.slice))
            return taint
        return self._children(node)

    def _children(self, node: ast.AST) -> Taint:
        out: Taint = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out = _union(out, self._eval(child))
            elif isinstance(child, ast.comprehension):
                out = _union(out, self._iter(child.iter))
            elif isinstance(child, ast.keyword):
                out = _union(out, self._eval(child.value))
        return out

    def _iter(self, node: ast.expr) -> Taint:
        """Taint of the items of ``node``: a set yields them in hash order."""
        taint = self._eval(node)
        if isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call) and dotted_name(node.func) in SET_CTORS
        ):
            return self._source(node, HASH_ORDER, "iteration over a set", taint)
        return taint

    def _source(self, node: ast.AST, cat: str, desc: str, base: Taint) -> Taint:
        self.sanitized.discard(cat)  # a fresh source re-taints its category
        return _union(base, {cat: (self._step(node, desc),)})

    def _call(self, node: ast.Call) -> Taint:
        name = dotted_name(node.func) or ""
        leaf = name.rsplit(".", 1)[-1]
        ordered = self._iter if leaf in SEQUENCERS else self._eval
        arg_taints = [ordered(a) for a in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }
        star_taints = [
            self._eval(kw.value) for kw in node.keywords if kw.arg is None
        ]
        all_taints = arg_taints + list(kw_taints.values()) + star_taints
        receiver: Taint = {}
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value)

        # -- sanitizers -------------------------------------------------------
        if leaf.endswith("Determinant") and leaf != "Determinant":
            cats = set(DETERMINANT_CATEGORIES.get(leaf, ALL_CATS))
            self._sanitize(cats, all_taints + [receiver])
            return {}
        if match_suffix(name, LOG_APPEND_SUFFIXES):
            self._sanitize(set(ALL_CATS), all_taints)
            return {}
        if match_suffix(name, SERVICE_CALL_SUFFIXES):
            # Logged/replayed by construction: result deterministic, args
            # sanctioned (the custom determinant intercepts them).
            return {}

        # -- sources ----------------------------------------------------------
        base = _union(receiver, *all_taints)
        if name in UNSEEDED_RNG_CTORS:
            if node.args or node.keywords:
                return base  # seeded stream: the standard deterministic idiom
            return self._source(node, RNG, f"unseeded {name}()", base)
        if match_call(name, CLOCK_CALLS):
            return self._source(node, CLOCK, f"wall-clock read {name}()", base)
        if match_prefix(name, RNG_PREFIXES) or match_call(name, RNG_CALLS):
            return self._source(node, RNG, f"unlogged randomness {name}()", base)
        if name in HASH_ORDER_CALLS:
            return self._source(
                node, HASH_ORDER, f"process-dependent {name}()", base
            )
        if match_suffix(name, SELECT_ORDER_SUFFIXES):
            return self._source(
                node, SELECT_ORDER, f"cross-channel select {name}()", base
            )
        if match_call(name, AMBIENT_CALLS) or match_prefix(
            name, AMBIENT_PREFIXES
        ):
            return self._source(
                node, AMBIENT, f"ambient environment read {name}()", base
            )
        if (
            match_prefix(name, EXTERNAL_PREFIXES)
            or name in EXTERNAL_CALLS
            or match_suffix(name, EXTERNAL_SUFFIXES)
        ):
            return self._source(
                node, EXTERNAL, f"direct external call {name}()", base
            )
        if match_call(name, UNORDERED_CALLS):
            return self._source(
                node, HASH_ORDER, f"unordered result of {name}()", base
            )
        if name in SET_CTORS and self.fn.name in SNAPSHOT_DEFS:
            return self._source(
                node, HASH_ORDER, f"{name}() persisted by a snapshot method", base
            )
        if name in CANONICALIZERS:
            out = dict(base)
            out.pop(HASH_ORDER, None)
            return out

        # -- sinks ------------------------------------------------------------
        if leaf in STATE_SINK_CTORS:
            self._sink(STATE_SINK, node, all_taints, name)
            return {}
        receiver_name = name.rsplit(".", 1)[0] if "." in name else ""
        if match_suffix(name, STATE_SINK_SUFFIXES) and any(
            token in receiver_name for token in STATE_RECEIVER_TOKENS
        ):
            self._sink(STATE_SINK, node, all_taints, name)
            return {}
        if match_suffix(name, OUTPUT_SINK_SUFFIXES) and not any(
            token in receiver_name for token in _NON_OUTPUT_RECEIVER_TOKENS
        ):
            self._sink(OUTPUT_SINK, node, all_taints, name)
            return {}

        # -- interprocedural edges -------------------------------------------
        callees = (
            self.index.resolve_call(self.module, self.fn, name) if name else []
        )
        if not callees:
            # Unresolved: the result derives from the inputs.
            return base
        result: Taint = {}
        call_step = self._step(node, f"into {name}()")
        for callee in callees:
            summ = self.summaries.get(callee.fid)
            if summ is None:
                continue
            self.sanitized |= summ.sanitizes
            for cat, chain in summ.returns.items():
                result = _union(result, {cat: chain})
            offset = (
                1
                if callee.class_name is not None
                and callee.params
                and callee.params[0] in ("self", "cls")
                and (isinstance(node.func, ast.Attribute) or callee.name == "__init__")
                else 0
            )
            for j, taint in enumerate(arg_taints):
                result = _union(
                    result,
                    self._apply_param(summ, callee, j + offset, taint, node, call_step),
                )
            for kwname, taint in kw_taints.items():
                if kwname in callee.params:
                    result = _union(
                        result,
                        self._apply_param(
                            summ,
                            callee,
                            callee.params.index(kwname),
                            taint,
                            node,
                            call_step,
                        ),
                    )
        return result

    def _apply_param(
        self,
        summ: Summary,
        callee: FunctionInfo,
        pidx: int,
        taint: Taint,
        node: ast.Call,
        call_step: FlowStep,
    ) -> Taint:
        if not taint:
            return {}
        # Sanitization inside the callee is applied first: this is a
        # coverage checker, and a logged argument is a covered argument.
        if pidx in summ.param_sanitized:
            cats = set(summ.param_sanitized[pidx])
            self.sanitized |= cats
            self.summary.sanitizes |= cats & ALL_CATS
            for cat in taint:
                if cat.startswith("param:"):
                    self.sanitized.add(cat)
                    self.summary.param_sanitized.setdefault(
                        int(cat.split(":", 1)[1]), set()
                    ).update(cats)
        active = self._active(taint)
        sink = summ.param_to_sink.get(pidx)
        if sink is not None:
            kind, sink_step = sink
            for cat, chain in active.items():
                if cat.startswith("param:"):
                    self.summary.param_to_sink.setdefault(
                        int(cat.split(":", 1)[1]), (kind, sink_step)
                    )
                else:
                    self._finding(
                        _SINK_RULE[kind],
                        node,
                        chain + (call_step, sink_step),
                        cat,
                    )
        if pidx in summ.param_to_return:
            return {cat: chain + (call_step,) for cat, chain in active.items()}
        return {}


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Every node of a def's or lambda's body, not entering nested scopes."""
    body = fn_node.body
    stack = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bound_names(fn_node: ast.AST) -> Set[str]:
    """Names local to a def or lambda: its parameters and what it binds."""
    args = fn_node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared: Set[str] = set()
    for node in _own_nodes(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            declared.update(node.names)
    return names - declared


def _captured(fn: FunctionInfo) -> Dict[str, int]:
    """Enclosing-function variables ``fn`` mutates -> its first mutation line."""
    if fn.parent is None:
        return {}
    outer: Set[str] = set()
    parent: Optional[FunctionInfo] = fn.parent
    while parent is not None:
        outer |= _bound_names(parent.node)
        parent = parent.parent
    outer -= _bound_names(fn.node) | {"self", "cls"}
    found: Dict[str, int] = {}
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Nonlocal):
            names = list(node.names)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.ctx, ast.Store
        ):
            names = [_root_name(node)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr in MUTATORS
        ):
            names = [_root_name(node.func.value)]
        else:
            continue
        for name in names:
            if name in outer:
                found[name] = min(found.get(name, node.lineno), node.lineno)
    return found


def analyze_taint(index: ModuleIndex) -> Tuple[List[CausalFinding], int]:
    """Run the interprocedural fixpoint; returns (findings, iterations)."""
    summaries: Dict[str, Summary] = {
        fn.fid: Summary() for fn in index.iter_functions()
    }
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        fresh: Dict[str, Summary] = {}
        changed = False
        for fn in index.iter_functions():
            scanner = _Scanner(index, index.modules[fn.module], fn, summaries)
            scanner.run()
            fresh[fn.fid] = scanner.summary
            if scanner.summary.fingerprint() != summaries[fn.fid].fingerprint():
                changed = True
        summaries = fresh
        if not changed:
            break
    findings: List[CausalFinding] = []
    seen: Set[Tuple[str, str, int, str]] = set()
    for fn in index.iter_functions():
        scanner = _Scanner(index, index.modules[fn.module], fn, summaries)
        scanner.run()
        for finding in scanner.findings:
            key = (finding.rule.rule_id, finding.file, finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.rule.rule_id))
    return findings, iterations
