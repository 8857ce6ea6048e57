"""Module-level dataflow analysis for the checks engine.

PR 3's rules were per-node pattern matches: each looked at one AST node
with no memory of where its operands came from.  The determinism rules
(``DET001``-``DET004``) need more -- "does this value *derive from* the
wall clock", "is this function *reachable from* worker-dispatched code"
-- so this module builds, per file, the three structures a lightweight
dataflow analysis rests on:

* a **symbol table**: module-level assignments and the import alias map
  (``np`` -> ``numpy``, ``perf_counter`` -> ``time.perf_counter``);
* **def-use chains**: for every function, each local name mapped to the
  expressions assigned to it, in source order;
* **call-graph edges within the module**: which locally defined
  functions call which, plus the *worker set* -- functions dispatched to
  a pool (first argument of ``.map()`` / ``.submit()`` / ``.apply_async()``)
  or marked ``# checks: worker-scope``, closed over intra-module calls.

Scope pragmas
-------------
Two pragmas let code state execution-scope intent where the analyzer
cannot infer it across module boundaries (both attach to the ``def``
line or the line directly above it):

``# checks: worker-scope``
    This function executes inside pool workers even though the dispatch
    happens in another module; DET001 verifies its RNG discipline.
``# checks: exec-scope``
    Values produced here describe the execution substrate (wall-clock
    timings, pool accounting) and are deliberately outside the
    bit-identity contract; DET002/DET004 skip sinks in this function.

Everything here is pure stdlib ``ast`` -- the analysis stays
zero-dependency like the rest of :mod:`repro.checks`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: Pool-dispatch methods whose first argument runs in a worker process.
_DISPATCH_METHODS = frozenset(
    {"map", "submit", "imap", "imap_unordered", "apply_async", "starmap"}
)

_SCOPE_PRAGMA_RE = re.compile(r"#\s*checks:\s*(worker-scope|exec-scope)\b")


@dataclass
class FunctionInfo:
    """One function or method and the dataflow facts rules ask about.

    Attributes
    ----------
    node:
        The ``def`` node itself.
    qualname:
        Dotted path inside the module (``Class.method``, ``outer.inner``).
    params:
        Parameter names, in declaration order.
    assignments:
        Local def-use chains: name -> expressions assigned to it, in
        source order (``Assign``/``AnnAssign``/``AugAssign``/walrus).
    returns:
        Every ``return`` expression in the body.
    calls:
        Every :class:`ast.Call` in the body, in source order.
    callee_names:
        Leaf names of plain-``Name`` callees (the intra-module edges).
    pragmas:
        Scope pragmas attached to the ``def`` line (or the line above).
    """

    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str
    params: tuple[str, ...] = ()
    assignments: dict[str, list[ast.expr]] = field(default_factory=dict)
    returns: list[ast.expr] = field(default_factory=list)
    calls: list[ast.Call] = field(default_factory=list)
    callee_names: set[str] = field(default_factory=set)
    pragmas: frozenset[str] = frozenset()

    @property
    def name(self) -> str:
        """The function's leaf name."""
        return self.node.name


def _assign_targets(node: ast.stmt) -> tuple[list[ast.expr], ast.expr | None]:
    """The (targets, value) pair of an assignment-like statement."""
    if isinstance(node, ast.Assign):
        return list(node.targets), node.value
    if isinstance(node, ast.AnnAssign):
        return [node.target], node.value
    if isinstance(node, ast.AugAssign):
        return [node.target], node.value
    return [], None


class _FunctionCollector(ast.NodeVisitor):
    """Walks one function body (not into nested defs) gathering facts."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self._depth = 0

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested defs get their own FunctionInfo; closures still
            # contribute call edges (a nested helper dispatched later
            # runs whatever it calls), so walk them for calls only.
            if self._depth > 0:
                self._collect_calls_only(node)
                return
            self._depth += 1
            ast.NodeVisitor.generic_visit(self, node)
            self._depth -= 1
            return
        ast.NodeVisitor.visit(self, node)

    def _collect_calls_only(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._record_call(child)

    def _record_call(self, node: ast.Call) -> None:
        self.info.calls.append(node)
        if isinstance(node.func, ast.Name):
            self.info.callee_names.add(node.func.id)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self.info.returns.append(node.value)
        self.generic_visit(node)

    def _record_assignment(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.info.assignments.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpacking: every element conservatively sees the
            # whole right-hand side (good enough for taint joins).
            for element in target.elts:
                self._record_assignment(element, value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._record_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        # ``for x in xs`` -- the loop variable derives from the iterable.
        self._record_assignment(node.target, node.iter)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if item.optional_vars is not None:
                self._record_assignment(item.optional_vars, item.context_expr)
        self.generic_visit(node)


class ModuleAnalysis:
    """Symbol table, def-use chains and call graph for one parsed module.

    Built lazily by :attr:`repro.checks.engine.FileContext.analysis` and
    shared by every dataflow rule that runs on the file.
    """

    def __init__(self, tree: ast.Module, lines: list[str]) -> None:
        self.tree = tree
        self._lines = lines
        #: alias -> fully dotted import target (``np`` -> ``numpy``,
        #: ``perf_counter`` -> ``time.perf_counter``).
        self.imports: dict[str, str] = {}
        #: module-level name -> assigned expressions, in source order.
        self.module_assignments: dict[str, list[ast.expr]] = {}
        #: qualname -> info, in definition order.
        self.functions: dict[str, FunctionInfo] = {}
        #: leaf name -> infos sharing it (call edges resolve through this).
        self.by_leaf: dict[str, list[FunctionInfo]] = {}
        #: def node -> its info (rules often hold the node, not the name).
        self.by_node: dict[ast.AST, FunctionInfo] = {}
        self._worker: dict[str, tuple[str, ...]] | None = None
        self._collect()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for stmt in self.tree.body:
            targets, value = _assign_targets(stmt)
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.module_assignments.setdefault(target.id, []).append(value)
        self._walk_defs(self.tree, prefix="")

    def _walk_defs(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                info = self._build_info(child, qualname)
                self.functions[qualname] = info
                self.by_leaf.setdefault(child.name, []).append(info)
                self.by_node[child] = info
                self._walk_defs(child, prefix=f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                self._walk_defs(child, prefix=f"{prefix}{child.name}.")
            else:
                self._walk_defs(child, prefix=prefix)

    def _build_info(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> FunctionInfo:
        args = node.args
        params = tuple(
            p.arg for p in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        if args.vararg is not None:
            params += (args.vararg.arg,)
        if args.kwarg is not None:
            params += (args.kwarg.arg,)
        info = FunctionInfo(
            node=node,
            qualname=qualname,
            params=params,
            pragmas=self._def_pragmas(node),
        )
        collector = _FunctionCollector(info)
        collector.visit(node)
        return info

    def _def_pragmas(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str]:
        found: set[str] = set()
        # The pragma may sit on the def line itself or the line directly
        # above it (above any decorators).
        first = min(
            [node.lineno, *(d.lineno for d in node.decorator_list)]
        )
        for lineno in (first - 1, first, node.lineno):
            if 1 <= lineno <= len(self._lines):
                match = _SCOPE_PRAGMA_RE.search(self._lines[lineno - 1])
                if match is not None:
                    found.add(match.group(1))
        return frozenset(found)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_import(self, dotted: str) -> str:
        """*dotted* with its leading alias expanded through the imports.

        ``np.random.default_rng`` -> ``numpy.random.default_rng``;
        ``perf_counter`` -> ``time.perf_counter``; unknown names pass
        through unchanged.
        """
        head, _, rest = dotted.partition(".")
        resolved = self.imports.get(head)
        if resolved is None:
            return dotted
        return f"{resolved}.{rest}" if rest else resolved

    def resolve_function(self, name: str) -> FunctionInfo | None:
        """The locally defined function a plain-name call resolves to.

        Returns ``None`` when the name is undefined here or ambiguous
        (several nested defs share the leaf name) -- callers must treat
        unresolved calls conservatively.
        """
        candidates = self.by_leaf.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def function_for_node(self, node: ast.AST) -> FunctionInfo | None:
        """The :class:`FunctionInfo` of a ``def`` node seen elsewhere."""
        return self.by_node.get(node)

    def callees_closure(self, info: FunctionInfo) -> set[str]:
        """Leaf names of every function *info* reaches via local calls."""
        seen: set[str] = set()
        frontier = list(info.callee_names)
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            callee = self.resolve_function(name)
            if callee is not None:
                frontier.extend(callee.callee_names - seen)
        return seen

    def transitive_attribute_calls(self, info: FunctionInfo) -> set[str]:
        """Attribute-method names called by *info* or its local callees.

        The cross-function upgrade of the resource rules: a release path
        (``close()``/``shutdown()``) counts even when it lives in a
        helper the creating function calls.
        """
        bodies = [info]
        for name in self.callees_closure(info):
            callee = self.resolve_function(name)
            if callee is not None and callee is not info:
                bodies.append(callee)
        return {
            call.func.attr
            for each in bodies
            for call in each.calls
            if isinstance(call.func, ast.Attribute)
        }

    def worker_functions(self) -> dict[str, tuple[str, ...]]:
        """Functions that execute in pool workers, with their evidence.

        Maps qualname to a tuple of human-readable steps explaining *why*
        the function is worker-scoped (the dispatch site or pragma, then
        each call edge that pulled it in).  Seeds are the first argument
        of any ``.map()``/``.submit()``-style dispatch and every function
        carrying the ``worker-scope`` pragma; the set is closed over
        intra-module call edges.
        """
        if self._worker is not None:
            return self._worker
        evidence: dict[str, tuple[str, ...]] = {}
        frontier: list[FunctionInfo] = []

        def seed(info: FunctionInfo, step: str) -> None:
            if info.qualname not in evidence:
                evidence[info.qualname] = (step,)
                frontier.append(info)

        for info in self.functions.values():
            if "worker-scope" in info.pragmas:
                seed(
                    info,
                    f"line {info.node.lineno}: {info.name}() is marked "
                    f"'# checks: worker-scope'",
                )
        for node in ast.walk(self.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DISPATCH_METHODS
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                continue
            target = self.resolve_function(node.args[0].id)
            if target is not None:
                seed(
                    target,
                    f"line {node.lineno}: {target.name}() is dispatched to "
                    f"pool workers via .{node.func.attr}()",
                )
        while frontier:
            info = frontier.pop()
            for call in info.calls:
                if not isinstance(call.func, ast.Name):
                    continue
                callee = self.resolve_function(call.func.id)
                if callee is None or callee.qualname in evidence:
                    continue
                evidence[callee.qualname] = (
                    *evidence[info.qualname],
                    f"line {call.lineno}: called from worker-scoped "
                    f"{info.name}()",
                )
                frontier.append(callee)
        self._worker = evidence
        return evidence
