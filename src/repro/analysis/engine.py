"""Walk files, parse, run rules, apply suppressions.

One pass: collect ``.py`` files (deduplicated across overlapping path
arguments), parse each into a :class:`SourceModule` (AST + suppression
index), run every module rule per module, build the whole-program
:class:`~repro.analysis.graph.ProjectGraph` once and run project/graph
rules over it, then mark suppressed findings.  Syntax errors *and*
undecodable files become ``RL000`` findings rather than crashes so a
broken file cannot hide the rest of the tree.

:func:`run_rules` is that pass over already-parsed modules;
:func:`analyze_paths`, :func:`analyze_source` and
:func:`analyze_modules` differ only in how they obtain the modules.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.astutil import import_aliases
from repro.analysis.findings import Finding
from repro.analysis.graph import ProjectGraph, build_graph
from repro.analysis.registry import GraphRule, ModuleRule, ProjectRule, Rule, all_rules
from repro.analysis.suppressions import SuppressionIndex, scan_suppressions

SYNTAX_ERROR_RULE = "RL000"

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclass
class SourceModule:
    """One parsed source file plus everything rules need to know."""

    path: Path
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    aliases: dict[str, str] = field(default_factory=dict)

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()

    def in_package(self, package_dir: str) -> bool:
        """True when ``package_dir`` appears as a path component."""
        return package_dir in self.path.parts


@dataclass
class AnalysisResult:
    """Findings (active first) plus scan bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Overlapping arguments (``src src/repro``, ``./src ../repo/src``,
    a file plus the directory containing it) are deduplicated by
    normalized path, so no file is ever analyzed twice.
    """
    out: dict[str, Path] = {}

    def _add(path: Path) -> None:
        out.setdefault(os.path.normpath(os.path.abspath(path)), path)

    for raw in paths:
        path = Path(os.path.normpath(str(raw)))
        if path.is_file() and path.suffix == ".py":
            _add(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    _add(candidate)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out.values())


def _error_finding(path: Path, line: int, col: int, message: str) -> Finding:
    return Finding(
        rule_id=SYNTAX_ERROR_RULE,
        path=path.as_posix(),
        line=line,
        col=col,
        message=message,
    )


def parse_module(path: Path, source: str) -> SourceModule | Finding:
    """Parse ``source`` as the file at ``path``: a module, or its ``RL000``."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return _error_finding(
            path, exc.lineno or 1, (exc.offset or 1) - 1, f"syntax error: {exc.msg}"
        )
    except ValueError as exc:  # e.g. null bytes in source
        return _error_finding(path, 1, 0, f"unparseable file: {exc}")
    return SourceModule(
        path=path,
        source=source,
        tree=tree,
        suppressions=scan_suppressions(source),
        aliases=import_aliases(tree),
    )


def load_module(path: Path) -> SourceModule | Finding:
    """Read and parse one file: a module, or a typed ``RL000`` finding.

    Files that are unreadable, not valid UTF-8, contain null bytes, or
    fail to parse produce a finding instead of raising — a binary blob
    with a ``.py`` extension must not take down the whole run.
    """
    try:
        source = path.read_bytes().decode("utf-8")
    except OSError as exc:
        return _error_finding(path, 1, 0, f"unreadable file: {exc}")
    except UnicodeDecodeError as exc:
        return _error_finding(
            path, 1, 0, f"file is not valid UTF-8 (byte offset {exc.start}): cannot analyze"
        )
    return parse_module(path, source)


def _mark_suppressed(finding: Finding, modules_by_path: dict[str, SourceModule]) -> Finding:
    module = modules_by_path.get(finding.path)
    if module is None:
        return finding
    if module.suppressions.is_suppressed(finding.rule_id, finding.line):
        return Finding(
            rule_id=finding.rule_id,
            path=finding.path,
            line=finding.line,
            col=finding.col,
            message=finding.message,
            suppressed=True,
        )
    return finding


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """The active rule set after ``--select`` / ``--ignore`` filtering."""
    rules = all_rules()
    if select is not None:
        wanted = {r.upper() for r in select}
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore is not None:
        dropped = {r.upper() for r in ignore}
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    return rules


def run_rules(modules: Sequence[SourceModule], rules: Sequence[Rule]) -> list[Finding]:
    """The pass: module rules, whole-program rules, suppressions; sorted."""
    findings: list[Finding] = []
    for module in modules:
        for rule in rules:
            if isinstance(rule, ModuleRule) and rule.applies_to(module):
                findings.extend(rule.check_module(module))
    graph: ProjectGraph | None = None
    for rule in rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules))
        elif isinstance(rule, GraphRule):
            if graph is None:
                graph = build_graph(modules)
            findings.extend(rule.check_graph(graph))
    modules_by_path = {m.posix_path: m for m in modules}
    return sorted((_mark_suppressed(f, modules_by_path) for f in findings), key=Finding.sort_key)


def analyze_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run the active rules over every ``.py`` file under ``paths``."""
    rules = select_rules(select, ignore)
    files = collect_files(paths)
    loaded = [load_module(path) for path in files]
    modules = [m for m in loaded if isinstance(m, SourceModule)]
    errors = [e for e in loaded if isinstance(e, Finding)]
    return AnalysisResult(
        findings=sorted(errors + run_rules(modules, rules), key=Finding.sort_key),
        files_scanned=len(files),
        rules_run=[rule.rule_id for rule in rules],
    )


def analyze_source(
    source: str,
    path: str = "<string>.py",
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint a source snippet (the fixture-test entry point).

    ``path`` participates in rule scoping (e.g. RL001 only fires under
    a ``repro`` package directory), so fixtures pass paths shaped like
    the real tree.  Graph rules see a one-module project graph, which
    is exactly what single-file fixtures want.
    """
    rules = select_rules(select)
    module = parse_module(Path(path), source)
    if isinstance(module, Finding):
        return [module]
    return run_rules([module], rules)


def analyze_modules(
    modules: list[SourceModule],
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint already-parsed modules together (multi-module fixtures)."""
    return run_rules(modules, select_rules(select))
