"""RL010 — wall-clock reachability from event handlers (whole-program).

RL003/RL006 flag wall-clock reads *syntactically inside* a handler
body.  That misses the one-hop-removed version: a handler calls a
helper, the helper calls ``time.time()`` — the handler is just as
impure, but no single module shows the whole chain.  This rule deepens
the check to the project call graph: it computes every function that
*transitively* reaches a wall-clock or blocking-sleep call, then flags
the **entry points** — event handlers and VNF callbacks — among them,
with the offending call chain in the message.

Entry points (scoped to the ``repro`` package, excluding the analyzer
itself, which runs outside the simulation):

- functions named like handlers: ``on_*`` / ``_on_*`` / ``handle_*`` /
  ``_handle_*`` and ``__call__`` methods (signal daemons dispatch
  through callables);
- any function referenced as a callback argument to ``schedule`` /
  ``schedule_at`` / ``schedule_every`` / ``listen`` / ``register``
  anywhere in the project (``scheduler.schedule(d, self._tick)``).

Call-graph resolution is conservative (direct calls, ``self.``
methods, alias-expanded module functions), so a chain through a
dynamic dispatch can escape — RL001/RL003/RL006 still catch the sink
itself inside the package.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.astutil import WALL_CLOCK_CALLS
from repro.analysis.findings import Finding
from repro.analysis.registry import GraphRule, register

if TYPE_CHECKING:
    from repro.analysis.graph import FunctionInfo, ProjectGraph

#: Wall-clock reads plus this rule's own extra, the blocking sleep.
_SINKS = {*WALL_CLOCK_CALLS, "time.sleep"}

_HANDLER_PREFIXES = ("on_", "_on_", "handle_", "_handle_")

_CALLBACK_SINKS = {"schedule", "schedule_at", "schedule_every", "listen", "register"}


def _callback_referenced(graph: "ProjectGraph") -> set[str]:
    """Qualnames of functions passed by reference to schedule/listen/register."""
    out: set[str] = set()
    for func in graph.functions.values():
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else None
            )
            if name not in _CALLBACK_SINKS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                resolved = _resolve_callback(arg, func, graph)
                if resolved is not None:
                    out.add(resolved)
    return out


def _resolve_callback(arg: ast.expr, func: "FunctionInfo", graph: "ProjectGraph") -> str | None:
    """``self._tick`` / bare-name callback references, project-resolved."""
    if (
        isinstance(arg, ast.Attribute)
        and isinstance(arg.value, ast.Name)
        and arg.value.id in ("self", "cls")
        and func.cls is not None
    ):
        return graph._class_method(f"{func.module}.{func.cls}", arg.attr)
    if isinstance(arg, ast.Name):
        return graph.resolve(arg.id, func.module)
    return None


@register
class WallClockReachabilityRule(GraphRule):
    rule_id = "RL010"
    name = "wallclock-reachability"
    description = "event handler/VNF callback transitively reaches a wall-clock or sleep call"

    def check_graph(self, graph: "ProjectGraph") -> Iterator[Finding]:
        reached = graph.reaches_external(_SINKS)
        if not reached:
            return
        callback_refs = _callback_referenced(graph)
        for qualname in sorted(reached):
            func = graph.functions[qualname]
            module = graph.modules.get(func.module)
            if module is None or not module.in_package("repro"):
                continue
            if "repro/analysis/" in func.path:
                continue  # the analyzer runs outside the simulated clock
            if not self._is_entry_point(func, callback_refs):
                continue
            chain = reached[qualname]
            pretty = " -> ".join(
                ".".join(part.split(".")[-2:]) if part in graph.functions else part
                for part in chain
            )
            yield Finding(
                rule_id=self.rule_id,
                path=func.path,
                line=func.line,
                col=func.node.col_offset,
                message=(
                    f"handler {func.name}() reaches wall clock via {pretty}: every frame of "
                    "this chain runs on the simulated clock — derive time from scheduler.now"
                ),
            )

    def _is_entry_point(self, func: "FunctionInfo", callback_refs: set[str]) -> bool:
        if func.name.startswith(_HANDLER_PREFIXES) or func.name == "__call__":
            return True
        return func.qualname in callback_refs
