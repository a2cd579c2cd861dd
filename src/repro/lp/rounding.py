"""LP-relaxation rounding for the integer VNF counts.

Problem (2) is an ILP only through the x_v variables (number of VNFs
per data center).  The paper relaxes, solves the LP, and rounds "to
nearest integer values".  Rounding x_v *down* can violate constraints
(2c)–(2e) — the flows the LP routed through v would exceed the rounded
capacity — so we round **up** any x_v with a meaningful fractional part
(beyond a small tolerance that absorbs solver noise).  Rounding up only
loosens the capacity constraints, hence preserves feasibility of the
flow solution, at a cost increase of at most α per fractional data
center — the standard bound for this rounding.
"""

from __future__ import annotations

import math

from repro.lp.model import Solution, Variable


#: Solver noise: a value this close to an integer *is* that integer.
TOLERANCE = 1e-6


def round_up_integers(solution: Solution) -> dict[Variable, int]:
    """Integer values for every integral variable in ``solution``.

    Values within :data:`TOLERANCE` of an integer snap to it (so 2.0000001
    does not become 3); everything else is rounded up to preserve
    feasibility of capacity constraints.
    """
    out: dict[Variable, int] = {}
    for var, value in solution.values.items():
        if not var.integer:
            continue
        nearest = round(value)
        if abs(value - nearest) <= TOLERANCE:
            out[var] = int(nearest)
        else:
            out[var] = int(math.ceil(value - TOLERANCE))
    return out


def apply_rounding(solution: Solution, rounded: dict[Variable, int]) -> Solution:
    """A new Solution with integral variables replaced by their rounding.

    The objective is re-evaluated under the modified assignment when the
    original objective expression is not available; callers who need the
    exact objective should re-evaluate their own expression.
    """
    values = dict(solution.values)
    for var, value in rounded.items():
        values[var] = float(value)
    return Solution(objective=solution.objective, values=values, status=solution.status, backend=solution.backend)
