"""CLI: ``python -m repro.analysis [paths...] [options]``.

Analyze, print text / JSON / SARIF, optionally also write a SARIF file
(DESIGN.md §12).  Exit status: 0 when there is no active finding, 1
when there is one, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.engine import analyze_paths
from repro.analysis.registry import all_rules
from repro.analysis.report import render_json, render_text
from repro.analysis.sarif import render_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Simulator-invariant lint for the ICDCS'17 reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"), default="text", dest="fmt")
    parser.add_argument("--select", metavar="RULES", help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", metavar="RULES", help="comma-separated rule ids to skip")
    parser.add_argument("--show-suppressed", action="store_true", help="include suppressed findings in text output")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    parser.add_argument("--sarif", metavar="FILE", help="also write a SARIF 2.1.0 report to FILE")
    return parser


def _split(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<24}  {rule.description}")
        return 0
    try:
        result = analyze_paths(args.paths, select=_split(args.select), ignore=_split(args.ignore))
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(result))

    if args.fmt == "json":
        print(render_json(result))
    elif args.fmt == "sarif":
        print(render_sarif(result), end="")
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
