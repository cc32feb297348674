"""Text, JSON and SARIF rendering of analysis results."""

from __future__ import annotations

import json

from .engine import AnalysisResult
from .registry import all_rules
from .violations import Violation

__all__ = ["render_text", "render_json", "render_sarif"]

#: SARIF 2.1.0 schema location embedded in every report.
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Tool metadata for the SARIF ``tool.driver`` object.
_TOOL_INFO_URI = "https://example.invalid/repro/docs/STATIC_ANALYSIS.md"


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary.

    With ``verbose`` the baselined/suppressed findings and unused baseline
    entries are itemised too; by default they only appear in the summary
    counts.
    """
    lines: list[str] = []
    for violation in result.violations:
        lines.append(violation.render())
    if verbose:
        for violation in result.baselined:
            lines.append(f"{violation.render()} [baselined]")
        for violation in result.suppressed:
            lines.append(f"{violation.render()} [suppressed by pragma]")
        for entry in result.unused_baseline:
            lines.append(
                f"{entry.path}: unused baseline entry {entry.rule}:{entry.symbol}"
                f" ({entry.justification})"
            )
    summary = (
        f"{len(result.violations)} violation"
        f"{'' if len(result.violations) == 1 else 's'} "
        f"({len(result.baselined)} baselined, {len(result.suppressed)} "
        f"suppressed) across {result.files_checked} file"
        f"{'' if result.files_checked == 1 else 's'}"
    )
    if result.unused_baseline:
        summary += f"; {len(result.unused_baseline)} unused baseline entries"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report (stable shape, see AnalysisResult.to_dict)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=False)


def _tool_version() -> str:
    """The library version stamped into SARIF output."""
    try:
        from .. import __version__
    except ImportError:
        return "0"
    return str(__version__)


def _sarif_result(
    violation: Violation,
    rule_index: dict[str, int],
    suppression: str | None = None,
) -> dict:
    """One SARIF ``result`` object for a violation."""
    result: dict = {
        "ruleId": violation.rule_id,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": violation.path},
                    "region": {
                        "startLine": max(int(violation.line), 1),
                        "startColumn": max(int(violation.col) + 1, 1),
                    },
                }
            }
        ],
        "partialFingerprints": {
            "reprolintFingerprint/v1": ":".join(violation.fingerprint()),
        },
    }
    if violation.rule_id in rule_index:
        result["ruleIndex"] = rule_index[violation.rule_id]
    if suppression is not None:
        result["level"] = "note"
        result["suppressions"] = [{"kind": suppression}]
    return result


def render_sarif(result: AnalysisResult) -> str:
    """SARIF 2.1.0 report for GitHub code-scanning upload.

    Active violations are ``error``-level results; baselined and
    pragma-suppressed findings are included as suppressed results
    (``external`` / ``inSource`` respectively) so code scanning shows
    them as dismissed rather than losing them.
    """
    rules_meta = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
        }
        for rule in all_rules()
    ]
    rule_index = {meta["id"]: i for i, meta in enumerate(rules_meta)}
    results = [_sarif_result(v, rule_index) for v in result.violations]
    results.extend(
        _sarif_result(v, rule_index, suppression="external")
        for v in result.baselined
    )
    results.extend(
        _sarif_result(v, rule_index, suppression="inSource")
        for v in result.suppressed
    )
    payload = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": _TOOL_INFO_URI,
                        "version": _tool_version(),
                        "rules": rules_meta,
                    }
                },
                "results": results,
                "invocations": [
                    {"executionSuccessful": True, "exitCode": 0 if result.ok else 1}
                ],
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
