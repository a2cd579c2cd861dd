"""Text and JSON reporters for analysis results."""

from __future__ import annotations

import json
from collections import Counter

from repro.analysis.engine import AnalysisResult


def render_text(result: AnalysisResult, show_suppressed: bool = False) -> str:
    """Human-oriented report: one line per finding plus a summary."""
    lines: list[str] = []
    shown = result.findings if show_suppressed else result.active
    for finding in shown:
        marker = " (suppressed)" if finding.suppressed else ""
        lines.append(f"{finding.location()}: {finding.rule_id} {finding.message}{marker}")
    by_rule = Counter(f.rule_id for f in result.active)
    if by_rule:
        breakdown = ", ".join(f"{rule}×{count}" for rule, count in sorted(by_rule.items()))
        lines.append(
            f"{len(result.active)} finding(s) in {result.files_scanned} file(s) [{breakdown}]"
            + (f"; {len(result.suppressed)} suppressed" if result.suppressed else "")
        )
    else:
        lines.append(
            f"clean: 0 findings in {result.files_scanned} file(s)"
            + (f"; {len(result.suppressed)} suppressed" if result.suppressed else "")
        )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Machine-oriented report (stable key order, newline-terminated)."""
    payload = {
        "files_scanned": result.files_scanned,
        "rules_run": result.rules_run,
        "findings": [f.as_dict() for f in result.active],
        "suppressed": [f.as_dict() for f in result.suppressed],
        "summary": {
            "active": len(result.active),
            "suppressed": len(result.suppressed),
            "by_rule": dict(sorted(Counter(f.rule_id for f in result.active).items())),
        },
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2, sort_keys=False)
