"""RL006 — event-handler purity.

Scheduled callbacks run *inside* the simulated clock: everything they
observe must be derived from the :class:`~repro.net.events.EventScheduler`
and the seeded RNGs, or runs stop replaying bit-identically (the chaos
soak's determinism contract) and simulated time silently diverges from
what the handler thinks it measured.  Two impurity classes are
statically detectable:

- **Wall-clock reads** (``time.time``, ``time.monotonic``,
  ``datetime.now``, …) inside a handler body.  Simulated timestamps come
  from ``scheduler.now``; a wall-clock read is at best a misleading
  metric and at worst a branch on host load.
- **File I/O** (``open``, ``Path.read_text``/``write_text``, …) inside a
  handler body.  Handlers fire thousands of times per simulated second;
  I/O belongs in setup or teardown, not in the event loop — and reading
  mutable files from a handler makes the run depend on on-disk state the
  seed does not capture.

A *handler* is any function whose name is passed as the callback to
``schedule`` / ``schedule_at`` / ``schedule_every`` anywhere in the same
module, plus lambdas inlined at the schedule call site.  Name-based
matching is deliberate: it is stable under the common
``self._tick``-style method references the simulator uses everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import WALL_CLOCK_CALLS, call_name, last_component
from repro.analysis.engine import SourceModule
from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleRule, register

_SCHEDULE_NAMES = {"schedule", "schedule_at", "schedule_every"}

#: Method names that are file I/O no matter the receiver.
_FILE_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


@register
class HandlerPurityRule(ModuleRule):
    rule_id = "RL006"
    name = "handler-purity"
    description = "wall-clock read or file I/O inside a scheduled event callback"

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        handler_names = set()
        lambda_handlers = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in _SCHEDULE_NAMES or len(node.args) < 2:
                continue
            callback = node.args[1]
            if isinstance(callback, ast.Attribute):
                handler_names.add(callback.attr)
            elif isinstance(callback, ast.Name):
                handler_names.add(callback.id)
            elif isinstance(callback, ast.Lambda):
                lambda_handlers.append(callback)

        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in handler_names
            ):
                yield from self._check_body(node, node.name, module)
        for handler in lambda_handlers:
            yield from self._check_body(handler, "<lambda>", module)

    # -- impurity scan -----------------------------------------------------

    def _check_body(
        self, handler: ast.AST, handler_name: str, module: SourceModule
    ) -> Iterator[Finding]:
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, module.aliases)
            if qualified in WALL_CLOCK_CALLS:
                yield self._finding(
                    node,
                    module,
                    f"{qualified}() in scheduled callback {handler_name}: handlers must "
                    "read simulated time (scheduler.now), never the wall clock",
                )
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                yield self._finding(
                    node,
                    module,
                    f"open() in scheduled callback {handler_name}: file I/O belongs in "
                    "setup/teardown, not the event loop",
                )
                continue
            if qualified is not None and last_component(qualified) in _FILE_IO_METHODS:
                yield self._finding(
                    node,
                    module,
                    f"{last_component(qualified)}() in scheduled callback {handler_name}: "
                    "file I/O belongs in setup/teardown, not the event loop",
                )

    def _finding(self, node: ast.AST, module: SourceModule, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module.posix_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
