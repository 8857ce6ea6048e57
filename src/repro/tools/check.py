"""CLI: run the project's domain-aware static analysis.

Example::

    python -m repro.tools.check                     # lint src/repro
    python -m repro.tools.check --json              # machine-readable report
    python -m repro.tools.check tests/fixtures/checks/rng_violations.py
    python -m repro.tools.check --explain DET002    # findings + their taint paths
    python -m repro.tools.check --changed-only      # only files git says changed
    python -m repro.tools.check --sarif out.sarif   # SARIF 2.1.0 for CI annotations

Every finding fails the run unless a ``# checks: ignore[RULE] reason``
pragma on its line names its rule.  Exit status: 0 when clean, 1 when
findings or parse errors exist, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.checks import Finding, all_rules, find_project_root, run_checks
from repro.checks.sarif import sarif_dumps


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.check",
        description="Domain-aware static analysis: RNG discipline, uint8 "
        "dtype safety, resource lifecycle, public-API typing.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the project's src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON report instead of human-readable lines",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print only this rule's findings, each followed by its "
        "recorded source-to-sink dataflow trace",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="check only files git reports as changed (vs --diff-base); "
        "falls back to the full tree outside a git repo",
    )
    parser.add_argument(
        "--diff-base",
        metavar="REF",
        default="HEAD",
        help="git ref (or ref range like origin/main...) the --changed-only "
        "file set is computed against (default: HEAD)",
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        metavar="PATH",
        default=None,
        help="also write the findings as a SARIF 2.1.0 report to PATH",
    )
    return parser


def _git_changed_files(root: Path, base: str) -> list[Path] | None:
    """Python files git reports changed vs *base*, or ``None`` off-repo.

    Covers committed-range changes (``git diff base``), which already
    include unstaged edits, plus untracked files; a failing git (not a
    repo, unknown ref) returns ``None`` so the caller can fall back to a
    full-tree scan rather than silently checking nothing.
    """
    commands = (
        ["git", "-C", str(root), "diff", "--name-only", base, "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    )
    names: set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        if proc.returncode != 0:
            return None
        names.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return [
        root / name
        for name in sorted(names)
        if name.endswith(".py") and (root / name).is_file()
    ]


def _scope_changed(changed: list[Path], scan_roots: list[Path]) -> list[Path]:
    """The subset of *changed* that lies under the requested scan roots.

    Keeps --changed-only from dragging in files a full run would never
    see (deliberately-violating test fixtures, examples/).
    """
    resolved_roots = [p.resolve() for p in scan_roots]
    kept: list[Path] = []
    for path in changed:
        resolved = path.resolve()
        for scan_root in resolved_roots:
            if resolved == scan_root or scan_root in resolved.parents:
                kept.append(path)
                break
    return kept


def _default_paths(root: Path) -> list[Path]:
    src = root / "src" / "repro"
    return [src if src.is_dir() else root]


def _finding_payload(finding: Finding) -> dict[str, object]:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "trace": list(finding.trace),
    }


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.description}")
        return 0

    known = [rule.rule_id for rule in rules]
    if args.explain is not None and args.explain not in known:
        parser.error(
            f"--explain: unknown rule {args.explain!r} (known: {', '.join(known)})"
        )

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            parser.error(f"no such path: {', '.join(str(p) for p in missing)}")
        root = find_project_root(paths[0].resolve())
    else:
        root = find_project_root(Path.cwd())
        paths = _default_paths(root)

    if args.changed_only:
        changed = _git_changed_files(root, args.diff_base)
        if changed is None:
            print(
                "--changed-only: git unavailable or --diff-base unknown; "
                "falling back to a full scan",
                file=sys.stderr,
            )
        else:
            paths = _scope_changed(changed, paths)
            if not paths:
                print("0 changed file(s) under the scan roots: nothing to check")
                return 0

    report = run_checks(paths, rules, root=root)
    findings = report.all_findings
    exit_code = 1 if findings else 0

    if args.sarif is not None:
        args.sarif.write_text(sarif_dumps(findings, rules), encoding="utf-8")

    if args.explain is not None:
        matching = [f for f in findings if f.rule == args.explain]
        for finding in matching:
            print(finding.format())
            if finding.trace:
                for step in finding.trace:
                    print(f"    {step}")
            else:
                print("    (no dataflow trace recorded for this finding)")
        print(f"{len(matching)} finding(s) for {args.explain}")
        return exit_code

    if args.json:
        payload = {
            "root": str(report.root),
            "files_checked": report.files_checked,
            "findings": [_finding_payload(f) for f in findings],
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2))
        return exit_code

    for finding in findings:
        print(finding.format())
    print(f"{report.files_checked} file(s) checked: {len(findings)} finding(s)")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
