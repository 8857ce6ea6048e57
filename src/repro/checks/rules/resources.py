"""Resource-lifecycle rules.

Two OS resources leak past the program that creates them:
``SharedMemory`` segments (leaked segments survive the process and fill
``/dev/shm`` until the machine, not the program, fails) and worker pools
(an un-shutdown ``ProcessPoolExecutor`` strands child processes).  Each
creation must have a visible release path: a ``with`` block, a
``finally`` clause, a matching close/unlink in the same function or any
local helper it (transitively) calls, or -- for pool-like classes -- an
enclosing class that owns the lifecycle via
``close``/``shutdown``/``__exit__``/``__del__``.  The helper-call case
rides on :meth:`repro.checks.analysis.ModuleAnalysis.transitive_attribute_calls`,
so extracting a ``_teardown()`` helper no longer trips the rule.

Rules
-----
RES001
    ``SharedMemory(...)`` created with no visible close/unlink path.
RES002
    ``ProcessPoolExecutor``/``ThreadPoolExecutor``/``Pool`` created with
    no visible shutdown path.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.engine import FileContext, Finding, Rule
from repro.checks.rules._ast_utils import call_name

_LIFECYCLE_METHODS = frozenset({"close", "shutdown", "__exit__", "__del__", "stop"})


def _attribute_calls(node: ast.AST) -> set[str]:
    """Names of all ``x.attr()`` method calls in *node*'s subtree."""
    attrs: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            attrs.add(child.func.attr)
    return attrs


class _PathStack(ast.NodeVisitor):
    """Collects creation calls along with their enclosing scopes."""

    def __init__(self, suffixes: tuple[str, ...]) -> None:
        self.suffixes = suffixes
        self.stack: list[ast.AST] = []
        self.hits: list[tuple[ast.Call, list[ast.AST]]] = []

    def generic_visit(self, node: ast.AST) -> None:
        is_scope = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.With, ast.Try)
        )
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name.rsplit(".", 1)[-1] in self.suffixes:
                self.hits.append((node, list(self.stack)))
        if is_scope:
            self.stack.append(node)
            super().generic_visit(node)
            self.stack.pop()
        else:
            super().generic_visit(node)


class _ResourcePairingRule(Rule):
    """Shared machinery: a creation call must have a release path."""

    #: Callee name suffixes that create the resource.
    create_suffixes: tuple[str, ...] = ()
    #: Method names that release it.
    release_attrs: frozenset[str] = frozenset()
    #: What to tell the user.
    advice: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        collector = _PathStack(self.create_suffixes)
        collector.visit(context.tree)
        for call, ancestors in collector.hits:
            if self._managed(context, call, ancestors):
                continue
            name = call_name(call) or "resource"
            yield self.finding(
                context,
                call,
                f"{name.rsplit('.', 1)[-1]} created without a visible release "
                f"path; {self.advice}",
            )

    def _managed(
        self, context: FileContext, call: ast.Call, ancestors: list[ast.AST]
    ) -> bool:
        function = None
        for node in reversed(ancestors):
            # Directly under a ``with`` item -> context-managed.
            if isinstance(node, ast.With):
                for item in node.items:
                    for child in ast.walk(item.context_expr):
                        if child is call:
                            return True
            if isinstance(node, ast.Try) and node.finalbody:
                released = set()
                for stmt in node.finalbody:
                    released |= _attribute_calls(stmt)
                if released & self.release_attrs:
                    return True
            if function is None and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                function = node
        if function is not None:
            if _attribute_calls(function) & self.release_attrs:
                return True
            # Cross-function: a release path counts even when it lives in
            # a helper the creating function calls (directly or
            # transitively through other local helpers).
            info = context.analysis.function_for_node(function)
            if (
                info is not None
                and context.analysis.transitive_attribute_calls(info)
                & self.release_attrs
            ):
                return True
            # Stored on self inside a class that owns the lifecycle.
            enclosing_class = self._enclosing_class(ancestors, function)
            if enclosing_class is not None and self._class_owns_lifecycle(
                enclosing_class
            ):
                return True
        return False

    @staticmethod
    def _enclosing_class(ancestors: list[ast.AST], function: ast.AST) -> ast.ClassDef | None:
        index = ancestors.index(function)
        for node in reversed(ancestors[:index]):
            if isinstance(node, ast.ClassDef):
                return node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return None
        return None

    @staticmethod
    def _class_owns_lifecycle(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in _LIFECYCLE_METHODS
            ):
                return True
        return False


class SharedMemoryRule(_ResourcePairingRule):
    """RES001: SharedMemory must be closed and unlinked."""

    rule_id = "RES001"
    description = "SharedMemory segments must be closed/unlinked exactly once"
    create_suffixes = ("SharedMemory",)
    release_attrs = frozenset({"close", "unlink"})
    advice = (
        "close()/unlink() it in a finally block, a with statement, or an "
        "owning class with a close() method (leaked segments outlive the process)"
    )


class ExecutorRule(_ResourcePairingRule):
    """RES002: worker pools must be shut down."""

    rule_id = "RES002"
    description = "worker pools must be shut down on every path"
    create_suffixes = ("ProcessPoolExecutor", "ThreadPoolExecutor", "Pool")
    release_attrs = frozenset({"shutdown", "close", "terminate", "join"})
    advice = (
        "shutdown()/close() it in a finally block, a with statement, or an "
        "owning class with a shutdown() method (stranded workers keep running)"
    )
