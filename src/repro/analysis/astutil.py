"""Small AST helpers shared by the rules.

The central service is *qualified-name resolution*: rules want to know
that ``rng()`` is really ``numpy.random.default_rng`` because the module
said ``from numpy.random import default_rng as rng``.  We track import
aliases per module and expand dotted expressions against them.
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Alias-expanded calls that read the host's clock: the one list behind
#: RL001 (anywhere in the package) and RL006 (inside a handler body).
WALL_CLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
)


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the fully qualified names they import.

    Handles ``import a.b``, ``import a.b as c`` and ``from a import b
    [as c]`` at any nesting level.  Relative imports are expanded with a
    leading ``.`` kept, which is enough for matching suffixes.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                full = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom):
            prefix = ("." * node.level) + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str] | None = None) -> str | None:
    """The dotted path of a Name/Attribute chain, alias-expanded.

    Returns ``None`` for expressions that are not plain attribute chains
    (calls, subscripts, …).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        root = aliases[root]
    parts.append(root)
    return ".".join(reversed(parts))


def call_name(node: ast.Call, aliases: dict[str, str] | None = None) -> str | None:
    """Qualified name of a call's target, or ``None`` if not static."""
    return dotted_name(node.func, aliases)


def last_component(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def is_negative_constant(node: ast.expr) -> bool:
    """True for literal negatives: ``-1``, ``-0.5`` (not ``-0``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = node.operand
        if isinstance(operand, ast.Constant) and isinstance(operand.value, (int, float)):
            return operand.value > 0
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value < 0
    return False


def walk_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield (scope node, body) for the module and every function/class."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body
        elif isinstance(node, ast.ClassDef):
            yield node, node.body
