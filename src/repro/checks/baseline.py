"""Accepted pre-existing findings.

A baseline lets the checker gate *new* violations immediately while the
legacy ones burn down: findings whose fingerprint (rule + path +
message, deliberately line-number-free so unrelated edits do not churn
it) appears in the baseline are reported but do not fail the run.
Entries that no longer match anything are *stale* and must be removed --
``tests/test_checks.py`` pins the shipped baseline to zero stale entries
so it can only shrink.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.checks.engine import Finding

_FORMAT_VERSION = 1


@dataclass
class BaselineDiff:
    """Findings split against a baseline."""

    new: list[Finding] = field(default_factory=list)
    accepted: list[Finding] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)


@dataclass
class Baseline:
    """Accepted finding fingerprints with occurrence counts.

    Counts matter: several violations of one rule in one file often share
    a message, and therefore a fingerprint.  Accepting the *fingerprint*
    alone would let a brand-new violation hide behind a baselined one;
    accepting ``count`` occurrences keeps the gate tight.
    """

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def fingerprints(self) -> set[str]:
        """The accepted fingerprints (ignoring counts)."""
        return set(self.counts)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        version = data.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported baseline version {version!r} in {path} "
                f"(expected {_FORMAT_VERSION})"
            )
        counts: dict[str, int] = {}
        for entry in data.get("entries", []):
            fingerprint = f"{entry['rule']}::{entry['path']}::{entry['message']}"
            counts[fingerprint] = counts.get(fingerprint, 0) + int(entry.get("count", 1))
        return cls(counts=counts)

    def save(self, path: Path, findings: list[Finding]) -> None:
        """Write *findings* as the new baseline (sorted, one entry per fingerprint)."""
        grouped: dict[str, Finding] = {}
        counts = Counter(f.fingerprint for f in findings)
        for finding in findings:
            grouped.setdefault(finding.fingerprint, finding)
        entries = [
            {
                "rule": grouped[fp].rule,
                "path": grouped[fp].path,
                "message": grouped[fp].message,
                "count": counts[fp],
            }
            for fp in sorted(grouped)
        ]
        payload = {"version": _FORMAT_VERSION, "entries": entries}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        self.counts = dict(counts)

    def diff(self, findings: list[Finding]) -> BaselineDiff:
        """Split *findings* into new vs accepted, and list stale entries.

        Within one fingerprint the first ``count`` occurrences (by line)
        are accepted and the rest are new.  A baseline entry with no (or
        fewer) current occurrences is stale: the violation was fixed, so
        the entry must be removed (``--update-baseline``) before it can
        mask a future regression.
        """
        result = BaselineDiff()
        by_fingerprint: dict[str, list[Finding]] = defaultdict(list)
        for finding in findings:
            by_fingerprint[finding.fingerprint].append(finding)
        for fingerprint, group in by_fingerprint.items():
            allowed = self.counts.get(fingerprint, 0)
            ordered = sorted(group, key=lambda f: (f.path, f.line, f.col))
            result.accepted.extend(ordered[:allowed])
            result.new.extend(ordered[allowed:])
        for fingerprint, allowed in self.counts.items():
            current = len(by_fingerprint.get(fingerprint, []))
            if current == 0:
                result.stale.append(fingerprint)
            elif current < allowed:
                result.stale.append(
                    f"{fingerprint} (baseline count {allowed} > current {current})"
                )
        result.new.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.accepted.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        result.stale.sort()
        return result
