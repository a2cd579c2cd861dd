"""Whole-program symbol / call graph.

The per-file rules see one module at a time; the cross-module rules
(RL009, RL011) need to answer questions like "which signal class does
this constructor call resolve to?" or "does every caller of this
function verify the packet first?".  :class:`ProjectGraph` is built
once per analysis run from the already-parsed :class:`SourceModule`
set and offers three views:

- **modules** — dotted module name ↔ parsed module, derived from the
  path (``src/repro/core/vnf.py`` → ``repro.core.vnf``).
- **symbols** — every function, method, and class keyed by qualified
  name (``repro.core.vnf.CodingVnf._process``).
- **calls** — a conservative call graph.  Resolution is intentionally
  static and best-effort: direct calls to module-level functions
  (through import aliases), ``self.method()`` / ``cls.method()`` calls
  within a class (including single-level base classes resolvable in
  the project), and ``Class()`` constructions mapping to
  ``Class.__init__``.  Unresolvable targets are kept as *external*
  dotted names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.astutil import dotted_name

if TYPE_CHECKING:
    from repro.analysis.engine import SourceModule

#: Path components that anchor a dotted module name.  ``src`` layouts
#: put the package right under ``src``; test trees are rooted at the
#: directory itself.
_ROOT_MARKERS = ("src",)


def module_name_for(path_parts: tuple[str, ...]) -> str:
    """Dotted module name for a file path (best effort, stable)."""
    parts = list(path_parts)
    for marker in _ROOT_MARKERS:
        if marker in parts:
            parts = parts[parts.index(marker) + 1 :]
            break
    if not parts:
        parts = list(path_parts)
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<root>"


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str            # repro.core.vnf.CodingVnf._process
    module: str              # repro.core.vnf
    path: str                # posix path of the defining file
    name: str                # _process
    cls: str | None          # CodingVnf (None for module-level functions)
    node: ast.FunctionDef | ast.AsyncFunctionDef
    line: int
    #: Resolved project-internal callees (qualified names).
    callees: set[str] = field(default_factory=set)
    #: Dotted names of calls that did not resolve inside the project
    #: (stdlib, third party, dynamic) — alias-expanded where possible.
    external_calls: set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class definition: its methods and resolvable base classes."""

    qualname: str
    module: str
    name: str
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qualname
    bases: list[str] = field(default_factory=list)         # qualified base names


class ProjectGraph:
    """Symbol table + conservative call graph."""

    def __init__(self, modules: Iterable["SourceModule"]) -> None:
        self.modules: dict[str, "SourceModule"] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: name -> qualname for module-level symbols, per module.
        self._module_symbols: dict[str, dict[str, str]] = {}
        for module in modules:
            name = module_name_for(module.path.parts)
            self.modules[name] = module
        for name, module in self.modules.items():
            self._index_module(name, module)
        for name, module in self.modules.items():
            self._resolve_calls(name, module)
        self._reverse: dict[str, set[str]] | None = None

    # -- construction ------------------------------------------------------

    def _index_module(self, mod_name: str, module: "SourceModule") -> None:
        symbols: dict[str, str] = {}
        self._module_symbols[mod_name] = symbols
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod_name}.{node.name}"
                symbols[node.name] = qual
                self._add_function(qual, mod_name, module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{mod_name}.{node.name}"
                symbols[node.name] = cls_qual
                info = ClassInfo(qualname=cls_qual, module=mod_name, name=node.name)
                for base in node.bases:
                    base_name = dotted_name(base, module.aliases)
                    if base_name is not None:
                        info.bases.append(base_name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        meth_qual = f"{cls_qual}.{item.name}"
                        info.methods[item.name] = meth_qual
                        self._add_function(meth_qual, mod_name, module, item, cls=node.name)
                self.classes[cls_qual] = info

    def _add_function(
        self,
        qualname: str,
        mod_name: str,
        module: "SourceModule",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> None:
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=mod_name,
            path=module.posix_path,
            name=node.name,
            cls=cls,
            node=node,
            line=node.lineno,
        )

    def _class_method(self, cls_qual: str, method: str, depth: int = 0) -> str | None:
        """Resolve a method on a class, walking project-local bases."""
        info = self.classes.get(cls_qual)
        if info is None or depth > 4:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base_qual = self._resolve_symbol(base, info.module)
            if base_qual is not None:
                found = self._class_method(base_qual, method, depth + 1)
                if found is not None:
                    return found
        return None

    def _resolve_symbol(self, dotted: str, from_module: str) -> str | None:
        """Map a dotted name (alias-expanded) to a project qualname."""
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # ``repro.core.signals.NcForwardTab``-style absolute references.
        head, _, tail = dotted.rpartition(".")
        if head in self.modules and tail in self._module_symbols.get(head, {}):
            return self._module_symbols[head][tail]
        # Relative imports keep a leading dot; match by suffix against
        # project modules (``.signals.NcForwardTab`` under repro.core).
        if dotted.startswith("."):
            stripped = dotted.lstrip(".")
            head, _, tail = stripped.rpartition(".")
            pkg = from_module.rsplit(".", 1)[0] if "." in from_module else from_module
            candidate = f"{pkg}.{head}" if head else pkg
            if candidate in self.modules and tail in self._module_symbols.get(candidate, {}):
                return self._module_symbols[candidate][tail]
        # A bare name defined in the same module.
        if "." not in dotted and dotted in self._module_symbols.get(from_module, {}):
            return self._module_symbols[from_module][dotted]
        return None

    def _resolve_calls(self, mod_name: str, module: "SourceModule") -> None:
        for func in self.functions.values():
            if func.module != mod_name:
                continue
            for call in _calls_in(func.node):
                target = self._resolve_call_target(call, func, module)
                if target is not None:
                    func.callees.add(target)
                    continue
                external = dotted_name(call.func, module.aliases)
                if external is not None:
                    func.external_calls.add(external)

    def _resolve_call_target(
        self, call: ast.Call, func: FunctionInfo, module: "SourceModule"
    ) -> str | None:
        target = call.func
        # self.method() / cls.method() inside a class body.
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in ("self", "cls")
            and func.cls is not None
        ):
            return self._class_method(f"{func.module}.{func.cls}", target.attr)
        dotted = dotted_name(target, module.aliases)
        if dotted is None:
            return None
        resolved = self._resolve_symbol(dotted, func.module)
        if resolved is None:
            return None
        # Constructing a project class calls its __init__.
        if resolved in self.classes:
            init = self._class_method(resolved, "__init__")
            return init if init is not None else resolved
        return resolved

    # -- queries -----------------------------------------------------------

    def resolve(self, dotted: str, from_module: str) -> str | None:
        """Public wrapper: project qualname for a dotted reference."""
        return self._resolve_symbol(dotted, from_module)

    def callers_of(self, qualname: str) -> set[str]:
        """Project functions whose resolved callees include ``qualname``."""
        if self._reverse is None:
            reverse: dict[str, set[str]] = {}
            for func in self.functions.values():
                for callee in func.callees:
                    reverse.setdefault(callee, set()).add(func.qualname)
            self._reverse = reverse
        return self._reverse.get(qualname, set())


def _calls_in(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Call nodes lexically inside ``func`` but not in nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes attribute their own calls
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def build_graph(modules: Iterable["SourceModule"]) -> ProjectGraph:
    """Build the whole-program graph for one analysis run."""
    return ProjectGraph(modules)
