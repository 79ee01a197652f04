"""Module-level call graph and class-hierarchy map over a source tree.

The causal analyzer never imports the code it scans: modules are parsed
from disk (``ast``), indexed by their dotted name relative to the scanned
package root, and linked by *name resolution*, not runtime objects.

Resolution is deliberately conservative — an edge is added only when the
callee can be pinned down:

* bare names resolve to same-module functions (or classes);
* ``alias.f`` resolves through ``import``/``from ... import`` bindings;
* ``self.m`` / ``cls.m`` resolves via class-hierarchy analysis: the
  enclosing class, its ancestors, and its descendants (an overriding
  subclass method is a legal callee of a base-class ``self.m()`` call);
* everything else stays unresolved — cross-object flows are instead
  covered by the *pattern* sinks/sanitizers of
  :mod:`repro.analysis.causal.model`, which match call names regardless of
  receiver.

Unresolved calls never create edges, so the graph under-approximates
reachability rather than connecting everything to everything.

Nested defs and lambdas are functions of their own, linked to the function
that encloses them.  A callable handed to a call — every lambda, and a def
passed by name — is a *UDF*: the framework consumes its return value.  A
callable handed to a ``ctx.services`` call is not: it runs under that
call's determinant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.causal.model import (
    SERVICE_CALL_SUFFIXES,
    dotted_name,
    match_suffix,
)


@dataclass
class ClassInfo:
    """One class definition: methods, base names, and its module."""

    name: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, "FunctionInfo"] = field(default_factory=dict)
    base_names: Tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function/method definition addressable as ``module:qualname``."""

    module: str
    qualname: str
    file: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    class_name: Optional[str] = None
    #: The function whose body defines this one (None at module/class level).
    parent: Optional["FunctionInfo"] = None
    #: Handed to a call as a callable: its return value is output.
    udf: bool = False

    @property
    def fid(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ModuleInfo:
    """One parsed module: AST, import bindings, defs, classes."""

    name: str
    path: str
    tree: ast.Module
    lines: Tuple[str, ...]
    #: local alias -> dotted target ("json", "repro.core.determinants",
    #: or "repro.core.determinants.OrderDeterminant" for from-imports).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


class ModuleIndex:
    """Every ``*.py`` under ``root`` (or the one file ``root``), parsed and
    cross-linked."""

    def __init__(self, root: Path, package: str = ""):
        self.root = Path(root)
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> every ClassInfo with that (unqualified) name.
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: class -> direct subclasses (by resolved base-name match).
        self._subclasses: Dict[Tuple[str, str], List[ClassInfo]] = {}
        self.parse_errors: List[str] = []
        self._build()

    # -- construction -----------------------------------------------------------

    def _module_name(self, path: Path) -> str:
        base = self.root.parent if self.root.is_file() else self.root
        rel = path.relative_to(base).with_suffix("")
        parts = list(rel.parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        dotted = ".".join(parts)
        if self.package:
            dotted = f"{self.package}.{dotted}" if dotted else self.package
        return dotted

    def _build(self) -> None:
        if not self.root.exists():
            self.parse_errors.append(f"{self.root}: no such file or directory")
        paths = [self.root] if self.root.is_file() else self.root.rglob("*.py")
        for path in sorted(paths):
            try:
                text = path.read_text()
                tree = ast.parse(text, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                self.parse_errors.append(f"{path}: {exc}")
                continue
            name = self._module_name(path)
            info = ModuleInfo(
                name=name,
                path=str(path),
                tree=tree,
                lines=tuple(text.splitlines()),
            )
            for node in tree.body:
                self._index_statement(info, node)
            self._index_nested(info)
            self.modules[name] = info
        self._link_hierarchy()

    def _index_statement(self, info: ModuleInfo, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: resolve against this module's package.
                parts = info.name.split(".")
                parts = parts[: len(parts) - node.level]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionInfo(info.name, node.name, info.path, node)
            info.functions[node.name] = fn
            self.functions[fn.fid] = fn
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(
                name=node.name,
                module=info.name,
                node=node,
                base_names=tuple(
                    filter(None, (dotted_name(b) for b in node.bases))
                ),
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = FunctionInfo(
                        info.name,
                        f"{node.name}.{item.name}",
                        info.path,
                        item,
                        class_name=node.name,
                    )
                    cls.methods[item.name] = fn
                    self.functions[fn.fid] = fn
            info.classes[node.name] = cls
            self.classes_by_name.setdefault(node.name, []).append(cls)
        elif isinstance(node, (ast.If, ast.Try)):
            # Guarded defs (TYPE_CHECKING blocks, version gates).
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_statement(info, child)

    def _index_nested(self, info: ModuleInfo) -> None:
        """Index every nested def and lambda, and mark the UDFs."""
        known = {
            id(fn.node): fn
            for fn in self.functions.values()
            if fn.module == info.name
        }
        sanctioned: Set[int] = set()  # ids of lambdas handed to a services call

        def visit(node: ast.AST, owner: Optional[FunctionInfo]) -> None:
            if isinstance(node, ast.Call):
                self._mark_udfs(info, node, owner, sanctioned)
            for child in ast.iter_child_nodes(node):
                fn = owner
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    fn = known.get(id(child))
                    if fn is None:
                        fn = self._add_nested(info, child, owner)
                        fn.udf = isinstance(child, ast.Lambda) and (
                            id(child) not in sanctioned
                        )
                visit(child, fn)

        visit(info.tree, None)

    def _add_nested(
        self, info: ModuleInfo, node: ast.AST, owner: Optional[FunctionInfo]
    ) -> FunctionInfo:
        name = getattr(node, "name", f"<lambda:{node.lineno}>")
        qualname = f"{owner.qualname}.{name}" if owner else name
        if f"{info.name}:{qualname}" in self.functions:
            qualname += f":{node.col_offset}"
        fn = FunctionInfo(
            info.name,
            qualname,
            info.path,
            node,
            class_name=owner.class_name if owner else None,
            parent=owner,
        )
        self.functions[fn.fid] = fn
        return fn

    def _mark_udfs(
        self,
        info: ModuleInfo,
        call: ast.Call,
        owner: Optional[FunctionInfo],
        sanctioned: Set[int],
    ) -> None:
        service = match_suffix(dotted_name(call.func), SERVICE_CALL_SUFFIXES)
        for arg in [*call.args, *(kw.value for kw in call.keywords)]:
            if isinstance(arg, ast.Lambda) and service:
                sanctioned.add(id(arg))
            elif isinstance(arg, ast.Name) and not service:
                scope = f"{owner.qualname}." if owner else ""
                fn = self.functions.get(
                    f"{info.name}:{scope}{arg.id}"
                ) or info.functions.get(arg.id)
                if fn is not None:
                    fn.udf = True

    def _link_hierarchy(self) -> None:
        for module in self.modules.values():
            for cls in module.classes.values():
                for base in cls.base_names:
                    base_leaf = base.rsplit(".", 1)[-1]
                    for candidate in self.classes_by_name.get(base_leaf, ()):
                        self._subclasses.setdefault(
                            (candidate.module, candidate.name), []
                        ).append(cls)

    # -- queries -----------------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for fid in sorted(self.functions):
            yield self.functions[fid]

    def subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        return self._subclasses.get((cls.module, cls.name), [])

    def ancestors_of(self, cls: ClassInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        frontier = list(cls.base_names)
        seen = set()
        while frontier:
            base = frontier.pop()
            leaf = base.rsplit(".", 1)[-1]
            for candidate in self.classes_by_name.get(leaf, ()):
                key = (candidate.module, candidate.name)
                if key in seen:
                    continue
                seen.add(key)
                out.append(candidate)
                frontier.extend(candidate.base_names)
        return out

    def hierarchy_methods(self, cls: ClassInfo, method: str) -> List[FunctionInfo]:
        """``self.<method>`` candidates: this class, ancestors, descendants."""
        found: List[FunctionInfo] = []
        pool = [cls] + self.ancestors_of(cls) + self._descendants(cls)
        for candidate in pool:
            fn = candidate.methods.get(method)
            if fn is not None:
                found.append(fn)
        return found

    def _descendants(self, cls: ClassInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        frontier = [cls]
        seen = {(cls.module, cls.name)}
        while frontier:
            current = frontier.pop()
            for sub in self.subclasses_of(current):
                key = (sub.module, sub.name)
                if key in seen:
                    continue
                seen.add(key)
                out.append(sub)
                frontier.append(sub)
        return out

    def resolve_call(
        self, module: ModuleInfo, caller: FunctionInfo, name: str
    ) -> List[FunctionInfo]:
        """Callee candidates for dotted call ``name`` inside ``caller``."""
        parts = name.split(".")
        # self.m() / cls.m(): class-hierarchy analysis.
        if parts[0] in ("self", "cls") and len(parts) == 2 and caller.class_name:
            cls = module.classes.get(caller.class_name)
            if cls is not None:
                return self.hierarchy_methods(cls, parts[1])
            return []
        # Bare name: same-module function, imported function, or local class
        # constructor (constructor edges point at __init__).
        if len(parts) == 1:
            fn = module.functions.get(name)
            if fn is not None:
                return [fn]
            cls = module.classes.get(name)
            if cls is not None:
                init = cls.methods.get("__init__")
                return [init] if init is not None else []
            target = module.imports.get(name)
            if target is not None:
                return self._resolve_dotted(target)
            return []
        # alias.f / alias.Class.method through imports.
        target = module.imports.get(parts[0])
        if target is not None:
            return self._resolve_dotted(".".join([target] + parts[1:]))
        return []

    def _resolve_dotted(self, dotted: str) -> List[FunctionInfo]:
        """``pkg.module.fn`` / ``pkg.module.Class`` → FunctionInfo list."""
        # Longest-prefix module match.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            mod = self.modules.get(".".join(parts[:cut]))
            if mod is None:
                continue
            rest = parts[cut:]
            if not rest:
                return []
            if len(rest) == 1:
                fn = mod.functions.get(rest[0])
                if fn is not None:
                    return [fn]
                cls = mod.classes.get(rest[0])
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init] if init is not None else []
                return []
            if len(rest) == 2:
                cls = mod.classes.get(rest[0])
                if cls is not None:
                    fn = cls.methods.get(rest[1])
                    return [fn] if fn is not None else []
            return []
        return []
