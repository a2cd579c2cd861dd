"""Linear-programming substrate.

The paper solves its deployment/routing program (2) with off-the-shelf
solvers ("relax the integer constraint ... use standard LP solvers,
e.g., glpk" / "apply certain LP solvers, e.g., cplex").  Neither is
available offline, so this package provides:

- :mod:`repro.lp.model` — a small modeling layer (variables, linear
  expressions, constraints, max/min objective) that compiles to matrix
  form.
- a **HiGHS backend** via :func:`scipy.optimize.linprog` (the default),
- a **dense numpy simplex** (:mod:`repro.lp.simplex`): array-pivot
  primal simplex (Dantzig pricing, Bland's rule after a run of
  degenerate pivots) that starts from the slack basis when the program
  is a packing LP and from a cached basis when given one, with two-phase
  as the general fallback — prepared once per matrix and solved per
  right-hand side (:class:`PreparedProgram`) behind every fleet
  admission, one-shot (:func:`solve_simplex`) as the ``"simplex"``
  backend here and as an independent cross-check of HiGHS in tests,
- :mod:`repro.lp.rounding` — LP-relaxation rounding for the integer VNF
  counts x_v, rounding *up* so bandwidth/capacity constraints (2c)–(2e)
  remain satisfied.
"""

from repro.lp.model import Constraint, LinearProgram, LinExpr, Solution, SolveError, Variable
from repro.lp.rounding import round_up_integers
from repro.lp.simplex import PreparedProgram, SimplexResult, solve_simplex

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "LinearProgram",
    "Solution",
    "SolveError",
    "solve_simplex",
    "PreparedProgram",
    "SimplexResult",
    "round_up_integers",
]
