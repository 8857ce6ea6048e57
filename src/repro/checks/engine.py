"""The rule engine: walk Python files, run rules, collect findings.

A :class:`Rule` sees one parsed file at a time through a
:class:`FileContext` and yields :class:`Finding` records.  The engine
handles everything rule authors should not have to: file discovery,
parsing, per-rule path scoping (:meth:`Rule.applies_to`), and the one
waiver a finding has, the inline suppression pragma::

    risky_line()  # checks: ignore[DT002] frame proven in-range upstream

It silences only the listed rule ids, and only on its own line, so a
waiver names what it excuses and cannot outlive the code it excused.

Rules that need more than one node at a time -- the determinism family
-- ask the context for :attr:`FileContext.analysis`, a lazily built
:class:`~repro.checks.analysis.ModuleAnalysis` (symbol table, def-use
chains, intra-module call graph).  Findings produced from a dataflow
walk carry their source-to-sink path in :attr:`Finding.trace`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: analysis builds on engine types
    from repro.checks.analysis import ModuleAnalysis

#: Directory names never scanned, wherever they appear.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist", ".eggs"}

_PRAGMA_RE = re.compile(r"#\s*checks:\s*ignore\[(?P<rules>[A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``trace`` is the dataflow path behind the finding -- human-readable
    source-to-sink steps a taint rule recorded (``--explain`` prints
    them; SARIF exports them as a code flow).  It is deliberately *not*
    part of the fingerprint: a path reroute through a new helper must
    not change the finding's identity.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    trace: tuple[str, ...] = ()

    @property
    def fingerprint(self) -> str:
        """Stable identity SARIF carries (line numbers shift; this must not)."""
        return f"{self.rule}::{self.path}::{self.message}"

    def format(self) -> str:
        """Human-readable one-liner (``path:line:col RULE message``)."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._suppressions: dict[int, frozenset[str]] | None = None
        self._analysis: "ModuleAnalysis | None" = None

    @property
    def analysis(self) -> "ModuleAnalysis":
        """The module-level dataflow analysis, built once per file.

        Lazy so the per-node rules pay nothing for it; every dataflow
        rule on the same file shares one instance.
        """
        if self._analysis is None:
            from repro.checks.analysis import ModuleAnalysis

            self._analysis = ModuleAnalysis(self.tree, self.lines)
        return self._analysis

    def suppressed(self, finding: Finding) -> bool:
        """Whether a ``# checks: ignore[...]`` pragma on its line names *finding*'s rule."""
        return finding.rule in self._suppression_table().get(finding.line, ())

    def _suppression_table(self) -> dict[int, frozenset[str]]:
        table = self._suppressions
        if table is None:
            table = {}
            for number, text in enumerate(self.lines, start=1):
                match = _PRAGMA_RE.search(text)
                if match is not None:
                    table[number] = frozenset(
                        part.strip() for part in match.group("rules").split(",")
                    )
            self._suppressions = table
        return table


class Rule:
    """Base class for a single check.

    Subclasses set :attr:`rule_id` (the stable ``ABC123``-style identifier
    reported to users and named by suppression pragmas) and implement
    :meth:`check`.  Override :meth:`applies_to` to scope a rule to part
    of the tree.
    """

    rule_id: str = "RULE"
    description: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule should run on *relpath* (default: everywhere)."""
        return True

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def finding(
        self,
        context: FileContext,
        node: ast.AST,
        message: str,
        trace: Sequence[str] = (),
    ) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        return Finding(
            rule=self.rule_id,
            path=context.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            trace=tuple(trace),
        )


@dataclass
class CheckReport:
    """The outcome of one engine run."""

    root: Path
    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        """Rule findings plus parse failures, in path/line order."""
        combined = self.findings + self.parse_errors
        return sorted(combined, key=lambda f: (f.path, f.line, f.col, f.rule))


def find_project_root(start: Path) -> Path:
    """The nearest ancestor of *start* holding a ``pyproject.toml``.

    Falls back to *start* itself (as a directory) when no marker exists,
    so the engine still works on loose files outside a project.
    """
    current = start if start.is_dir() else start.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """All ``.py`` files under *paths* (files pass through, dirs recurse)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
                yield path
            continue
        for found in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in found.parts):
                continue
            if found not in seen:
                seen.add(found)
                yield found


def run_checks(
    paths: Sequence[Path | str],
    rules: Iterable[Rule],
    root: Path | None = None,
) -> CheckReport:
    """Run *rules* over every Python file under *paths*.

    *root* anchors the relative paths stored in findings (and therefore
    their fingerprints); by default it is discovered from the first
    path via :func:`find_project_root`.
    """
    resolved = [Path(p).resolve() for p in paths]
    if not resolved:
        raise ValueError("run_checks needs at least one path")
    anchor = root.resolve() if root is not None else find_project_root(resolved[0])
    rule_list = list(rules)
    report = CheckReport(root=anchor)
    for file_path in iter_python_files(resolved):
        try:
            relpath = file_path.relative_to(anchor).as_posix()
        except ValueError:
            relpath = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            report.parse_errors.append(
                Finding(
                    rule="PARSE",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        report.files_checked += 1
        context = FileContext(file_path, relpath, source, tree)
        for rule in rule_list:
            if not rule.applies_to(relpath):
                continue
            for finding in rule.check(context):
                if not context.suppressed(finding):
                    report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
