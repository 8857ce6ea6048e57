"""Domain-aware static analysis for the InFrame codebase.

The test suite can only spot-check the invariants the paper's channel
rests on -- every random draw must flow through an explicitly threaded
:class:`numpy.random.Generator`, uint8 frame math must never wrap around
the [0, 255] pixel cap that keeps complementary pairs complementary
(paper Section 3.3), and every shared-memory slot or worker pool must be
released exactly once.  This package checks those invariants *statically*
over the whole tree, so violations fail fast instead of waiting for the
one test that happens to exercise them.

Layout:

* :mod:`repro.checks.engine` -- AST walker producing :class:`Finding`
  records from a set of :class:`Rule` objects;
* :mod:`repro.checks.rules` -- the rule catalogue (RNG discipline, dtype
  safety, resource lifecycle, public-API typing);
* ``python -m repro.tools.check`` -- the command-line front end.

Every finding fails the run unless a ``# checks: ignore[RULE] reason``
pragma on its line names its rule; that scoped pragma is the only
waiver.
"""

from __future__ import annotations

from repro.checks.engine import (
    CheckReport,
    FileContext,
    Finding,
    Rule,
    find_project_root,
    iter_python_files,
    run_checks,
)
from repro.checks.rules import all_rules

__all__ = [
    "CheckReport",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "find_project_root",
    "iter_python_files",
    "run_checks",
]
