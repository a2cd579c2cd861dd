"""RL001 — unseeded randomness / wall clock in simulator code.

A reproduction whose behaviour depends on OS entropy or the wall clock
cannot honour "same seed → same run".  Inside the ``repro`` package the
only sanctioned fallback randomness is :mod:`repro.util.rng`; this rule
flags everything else:

- ``np.random.default_rng()`` with no seed argument (including use as a
  ``default_factory=``),
- ``np.random.default_rng(<anything>)``: a bare seeded generator is
  reproducible but not *private* — two components seeded with the same
  integer read the same word sequence (the butterfly's link losses and
  coefficient vectors once did) — so streams are derived by key,
  ``derive_rng(scope, node, seed=seed)``,
- any call into the stdlib :mod:`random` module (its global state is
  process-seeded),
- ``random.Random()`` without a seed,
- wall-clock reads (``time.time`` / ``monotonic`` / ``perf_counter`` /
  ``process_time`` / ``datetime.now`` …, the shared
  :data:`~repro.analysis.astutil.WALL_CLOCK_CALLS`) — simulated
  components must use the scheduler's ``now``.

Scope: files under a ``repro`` package directory only.  Tests and
benchmarks may manage randomness however they like (the repo's fixtures
pass seeded generators anyway).  The helper module ``util/rng.py`` is
exempt — it is the one place allowed to construct generators.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import WALL_CLOCK_CALLS, call_name, dotted_name
from repro.analysis.engine import SourceModule
from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleRule, register

_STDLIB_RANDOM_PREFIX = "random."

# numpy.random members that do NOT touch the legacy global state.
_NUMPY_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

_HELPER_SUFFIX = ("util", "rng.py")


@register
class UnseededRngRule(ModuleRule):
    rule_id = "RL001"
    name = "unseeded-rng"
    description = "bare default_rng(...)/random.*/wall-clock call in simulator code"

    def applies_to(self, module: SourceModule) -> bool:
        if module.path.parts[-2:] == _HELPER_SUFFIX:
            return False
        return module.in_package("repro")

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(node, aliases, module)
            yield from self._check_default_factory(node, aliases, module)

    def _finding(self, node: ast.AST, module: SourceModule, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module.posix_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def _check_call(self, node: ast.Call, aliases: dict[str, str], module: SourceModule) -> Iterator[Finding]:
        qualified = call_name(node, aliases)
        if qualified is None:
            return
        if qualified.endswith("numpy.random.default_rng") or qualified == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield self._finding(
                    node,
                    module,
                    "np.random.default_rng() without a seed: thread repro.util.rng.derive_rng(...) instead",
                )
            else:
                yield self._finding(
                    node,
                    module,
                    "bare seeded np.random.default_rng(...): derive a keyed stream with "
                    "derive_rng(..., seed=seed); two components seeded with one int alias",
                )
            return
        if qualified.startswith("numpy.random.") and qualified.count(".") == 2:
            member = qualified.rsplit(".", 1)[-1]
            if member not in _NUMPY_RANDOM_OK:
                yield self._finding(
                    node,
                    module,
                    f"legacy numpy.random.{member}() uses the process-global RNG: "
                    "use a seeded np.random.Generator",
                )
            return
        if qualified == "random.Random":
            if not node.args:
                yield self._finding(
                    node, module, "random.Random() without a seed breaks run reproducibility"
                )
            return
        if qualified.startswith(_STDLIB_RANDOM_PREFIX) and qualified.count(".") == 1:
            # Calls on the stdlib module's hidden global state
            # (random.random(), random.randint(), even random.seed()).
            yield self._finding(
                node,
                module,
                f"stdlib {qualified}() uses process-global state: use a seeded np.random.Generator",
            )
            return
        if qualified in WALL_CLOCK_CALLS:
            yield self._finding(
                node,
                module,
                f"{qualified}() reads the wall clock: simulated code must use scheduler.now",
            )

    def _check_default_factory(
        self, node: ast.Call, aliases: dict[str, str], module: SourceModule
    ) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg != "default_factory":
                continue
            target = dotted_name(keyword.value, aliases)
            if target is not None and target.endswith("numpy.random.default_rng"):
                yield self._finding(
                    keyword.value,
                    module,
                    "default_factory=np.random.default_rng is an unseeded fallback: "
                    "use a lambda over repro.util.rng.derive_rng",
                )
