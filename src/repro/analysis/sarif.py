"""SARIF 2.1.0 output for the analyzer.

SARIF (Static Analysis Results Interchange Format) is the exchange
format CI systems ingest for code-scanning annotations; emitting it
lets the lint job surface findings directly on the PR diff instead of
in a buried log.  The document shape used here is the minimal valid
subset: one ``run``, the full rule catalogue in
``tool.driver.rules`` (so viewers can render rule metadata even for
rules with zero results), and one ``result`` per finding.

Suppressed findings are included with an ``inAccepted`` suppression
object rather than dropped — SARIF viewers then show them greyed-out,
which matches the analyzer's own ``--show-suppressed`` semantics.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.analysis.registry import all_rules

if TYPE_CHECKING:
    from repro.analysis.engine import AnalysisResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

_TOOL_NAME = "repro-analysis"
_TOOL_URI = "https://example.invalid/repro/docs/DESIGN.md#12-static-analysis-architecture"


def _rule_descriptor(rule: object) -> dict[str, object]:
    return {
        "id": rule.rule_id,  # type: ignore[attr-defined]
        "name": rule.name,  # type: ignore[attr-defined]
        "shortDescription": {"text": rule.description},  # type: ignore[attr-defined]
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: object) -> dict[str, object]:
    out: dict[str, object] = {
        "ruleId": finding.rule_id,  # type: ignore[attr-defined]
        "level": "error",
        "message": {"text": finding.message},  # type: ignore[attr-defined]
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},  # type: ignore[attr-defined]
                    "region": {
                        "startLine": max(1, finding.line),  # type: ignore[attr-defined]
                        "startColumn": finding.col + 1,  # type: ignore[attr-defined]
                    },
                }
            }
        ],
    }
    if finding.suppressed:  # type: ignore[attr-defined]
        out["suppressions"] = [{"kind": "inSource", "status": "accepted"}]
    return out


def to_sarif(result: "AnalysisResult") -> dict[str, object]:
    """The SARIF 2.1.0 document for one analysis run, as a dict."""
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": [_rule_descriptor(rule) for rule in all_rules()],
                    }
                },
                "results": [_result(f) for f in result.findings],
                "properties": {"filesScanned": result.files_scanned},
            }
        ],
    }


def render_sarif(result: "AnalysisResult") -> str:
    return json.dumps(to_sarif(result), indent=2, sort_keys=True) + "\n"
