"""Simulator-invariant static analysis (``python -m repro.analysis``).

The reproduction's correctness rests on properties no general-purpose
linter checks: determinism under a seed, GF(2^w) arithmetic never
falling back to native integer ops, discrete-event discipline, and a
complete control-signal protocol.  This package is an AST-based lint
engine with repo-specific rules:

=========  =================================================================
``RL001``  unseeded randomness / wall-clock reads in simulator code
``RL002``  native ``+``/``-``/``*`` on values produced by ``repro.gf`` APIs
``RL003``  DES discipline: blocking sleeps, negative-delay ``schedule``,
           ``==`` on simulated-time floats
``RL004``  signal-protocol exhaustiveness across signals/controller/daemon
``RL005``  mutable default arguments
``RL006``  wall-clock reads / file I/O inside scheduled event callbacks
``RL007``  forwarding-table string literals the real parser would reject
``RL008``  ``MeasurementService`` started but never stopped in scope
``RL009``  config signals constructed without a live ``epoch=`` stamp
``RL011``  ``CodedPacket`` buffered without a dominating ``verify()``
``RL012``  concrete ``SignalBus`` annotated where ``SignalPort`` suffices
=========  =================================================================

RL009 and RL011 are whole-program rules over the project symbol/call
graph (``graph.py``); one pass — collect, parse, module rules,
whole-program rules, suppressions, report (text / JSON / SARIF) — is
all there is: see ``DESIGN.md`` §12.

Findings can be suppressed per line with ``# repro-lint: disable=RL001``
(or ``disable-next-line=`` / ``disable-file=``); see ``DESIGN.md``.
"""

from repro.analysis.engine import AnalysisResult, analyze_modules, analyze_paths, analyze_source
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    GraphRule,
    ModuleRule,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "GraphRule",
    "ModuleRule",
    "ProjectRule",
    "Rule",
    "all_rules",
    "analyze_modules",
    "analyze_paths",
    "analyze_source",
    "get_rule",
    "register",
]
