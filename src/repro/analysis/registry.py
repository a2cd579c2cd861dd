"""Rule base classes and the global rule registry.

A rule is either a :class:`ModuleRule` (checks one parsed module at a
time — most rules) or a :class:`ProjectRule` (sees every scanned module
at once — cross-module checks like signal-protocol exhaustiveness).
New rules self-register via the :func:`register` decorator; adding a
rule is: write the class in ``repro/analysis/rules/``, import it from
``rules/__init__.py``, add a fixture test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Type, TypeVar

if TYPE_CHECKING:
    from repro.analysis.engine import SourceModule
    from repro.analysis.findings import Finding
    from repro.analysis.graph import ProjectGraph


class Rule:
    """Base class: identity and metadata shared by all rules."""

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, module: "SourceModule") -> bool:
        """Whether the rule should run on ``module`` at all.

        Rules that only make sense inside the simulator package (e.g.
        RL001's determinism contract) override this to skip tests and
        benchmarks, where controlled randomness or exact-time asserts
        are legitimate.
        """
        return True


class ModuleRule(Rule):
    """A rule evaluated independently per module."""

    def check_module(self, module: "SourceModule") -> Iterator["Finding"]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the full set of scanned modules."""

    def check_project(self, modules: "Iterable[SourceModule]") -> Iterator["Finding"]:
        raise NotImplementedError


class GraphRule(Rule):
    """A rule evaluated once over the whole-program :class:`ProjectGraph`.

    Graph rules see the project's symbol/call graph (built once
    per run) in addition to every parsed module, which is what
    cross-module invariants — epoch stamping, verify-before-buffer
    domination — need.
    """

    def check_graph(self, graph: "ProjectGraph") -> Iterator["Finding"]:
        raise NotImplementedError


_REGISTRY: dict[str, Type[Rule]] = {}

R = TypeVar("R", bound=Type[Rule])


def register(rule_cls: R) -> R:
    """Class decorator adding a rule to the global registry."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_id}: {existing.__name__} and {rule_cls.__name__}")
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def _ensure_builtin_rules_loaded() -> None:
    # Importing the package registers every built-in rule; deferred to
    # avoid a circular import at module load.
    import repro.analysis.rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, sorted by id."""
    _ensure_builtin_rules_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one rule by id (raises ``KeyError`` if unknown)."""
    _ensure_builtin_rules_loaded()
    return _REGISTRY[rule_id]()
