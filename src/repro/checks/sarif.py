"""SARIF 2.1.0 export for check findings.

SARIF (Static Analysis Results Interchange Format) is the schema GitHub
code scanning ingests; uploading the file from CI renders each finding
as an inline PR annotation.  Only the small subset the findings actually
carry is emitted: one ``run`` for the tool, one ``result`` per finding,
and -- for findings produced by the dataflow rules -- one ``codeFlow``
whose thread-flow locations are the recorded source-to-sink trace
steps, so the taint path shows up in the code-scanning UI too.

Pure stdlib, like everything else in :mod:`repro.checks`.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Sequence

from repro.checks.engine import Finding, Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Trace steps are ``path:line: text`` (see ``FlowAnalyzer.step``).
_STEP_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): (?P<text>.*)$")


def _location(path: str, line: int, col: int | None = None) -> dict[str, object]:
    region: dict[str, object] = {"startLine": line}
    if col is not None:
        region["startColumn"] = col
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": path, "uriBaseId": "%SRCROOT%"},
            "region": region,
        }
    }


def _code_flow(finding: Finding) -> dict[str, object]:
    locations: list[dict[str, object]] = []
    for step in finding.trace:
        match = _STEP_RE.match(step)
        if match is not None:
            location = _location(match.group("path"), int(match.group("line")))
        else:
            # Evidence steps without a file anchor (pragma/dispatch notes)
            # attach to the finding's own location.
            location = _location(finding.path, finding.line)
        location["message"] = {"text": match.group("text") if match else step}
        locations.append({"location": location})
    return {"threadFlows": [{"locations": locations}]}


def _result(finding: Finding) -> dict[str, object]:
    result: dict[str, object] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [_location(finding.path, finding.line, finding.col)],
        "partialFingerprints": {"reproChecks/v1": finding.fingerprint},
    }
    if finding.trace:
        result["codeFlows"] = [_code_flow(finding)]
    return result


def sarif_report(
    findings: Sequence[Finding], rules: Iterable[Rule]
) -> dict[str, object]:
    """The SARIF 2.1.0 document for *findings* as a plain dict."""
    catalogue = [
        {
            "id": rule.rule_id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.description or rule.rule_id},
        }
        for rule in sorted(rules, key=lambda r: r.rule_id)
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-checks",
                        "informationUri": "https://example.invalid/repro-checks",
                        "rules": catalogue,
                    }
                },
                "results": [_result(finding) for finding in findings],
            }
        ],
    }


def sarif_dumps(findings: Sequence[Finding], rules: Iterable[Rule]) -> str:
    """The SARIF document serialized with stable key order."""
    return json.dumps(sarif_report(findings, rules), indent=2, sort_keys=True)
