"""LP modeling layer: variables, expressions, constraints, solve.

Kept deliberately small — just enough to express problem (2) readably:

    lp = LinearProgram()
    lam = lp.add_variable("lambda_m")
    x = lp.add_variable("x_v", integer=True)
    lp.add_constraint(lam - 3.0 * x <= 0.0, name="capacity")
    lp.maximize(lam - 20.0 * x)
    solution = lp.solve()

Integer variables are handled by LP relaxation + rounding (see
:mod:`repro.lp.rounding`), matching the paper's solution approach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np
import numpy.typing as npt

#: Anything coercible into a linear expression.
ExprLike = Union["LinExpr", "Variable", int, float]

FloatArray = npt.NDArray[np.float64]

#: Per-variable (lower, upper) bounds; ``None`` upper means unbounded.
Bounds = list[tuple[float, Union[float, None]]]

CompiledProgram = tuple[
    FloatArray,
    Union[FloatArray, None],
    Union[FloatArray, None],
    Union[FloatArray, None],
    Union[FloatArray, None],
    Bounds,
]


class SolveError(RuntimeError):
    """The LP could not be solved (infeasible, unbounded, solver failure)."""


class LinExpr:
    """A linear expression: Σ coef·var + constant."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict[Variable, float] | None = None, constant: float = 0.0) -> None:
        self.terms: dict[Variable, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @staticmethod
    def _coerce(other: object) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return LinExpr({other: 1.0})
        if isinstance(other, (int, float)):
            return LinExpr(constant=float(other))
        raise TypeError(f"cannot use {type(other).__name__} in a linear expression")

    def __add__(self, other: ExprLike) -> "LinExpr":
        coerced = self._coerce(other)
        terms = dict(self.terms)
        for var, coef in coerced.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
        return LinExpr(terms, self.constant + coerced.constant)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.terms.items()}, -self.constant)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return self._coerce(other) + (-self)

    def __mul__(self, scalar: object) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            raise TypeError("expressions can only be scaled by numbers (the program must stay linear)")
        return LinExpr({v: c * scalar for v, c in self.terms.items()}, self.constant * scalar)

    __rmul__ = __mul__

    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - self._coerce(other), "<=")

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - self._coerce(other), ">=")

    def eq(self, other: ExprLike) -> "Constraint":
        """Equality constraint (named method: ``==`` is kept for identity)."""
        return Constraint(self - self._coerce(other), "==")

    def value(self, assignment: dict[Variable, float]) -> float:
        """Evaluate under a {Variable: value} assignment."""
        return self.constant + sum(coef * assignment[var] for var, coef in self.terms.items())

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts) if parts else "0"


class Variable:
    """A decision variable with bounds; hashable by identity."""

    _ids: Iterator[int] = itertools.count()

    __slots__ = ("name", "lower", "upper", "integer", "index")

    def __init__(
        self, name: str, lower: float = 0.0, upper: float | None = None, integer: bool = False
    ) -> None:
        self.name = name
        self.lower = lower
        self.upper = upper
        self.integer = integer
        self.index: int | None = None  # assigned when added to a program

    # Arithmetic delegates to LinExpr.
    def _expr(self) -> LinExpr:
        return LinExpr({self: 1.0})

    def __add__(self, other: ExprLike) -> LinExpr:
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other: ExprLike) -> LinExpr:
        return self._expr() - other

    def __rsub__(self, other: ExprLike) -> LinExpr:
        return LinExpr._coerce(other) - self._expr()

    def __neg__(self) -> LinExpr:
        return -self._expr()

    def __mul__(self, scalar: object) -> LinExpr:
        return self._expr() * scalar

    __rmul__ = __mul__

    def __le__(self, other: ExprLike) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other: ExprLike) -> "Constraint":
        return self._expr() >= other

    def eq(self, other: ExprLike) -> "Constraint":
        return self._expr().eq(other)

    def __repr__(self) -> str:
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name}, [{self.lower}, {self.upper}], {kind})"


@dataclass
class Constraint:
    """``expr sense 0`` — the rhs is folded into the expression constant."""

    expr: LinExpr
    sense: str  # one of "<=", ">=", "=="
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")

    def violation(self, assignment: dict[Variable, float]) -> float:
        """How far the constraint is from holding (0 when satisfied)."""
        v = self.expr.value(assignment)
        if self.sense == "<=":
            return max(0.0, v)
        if self.sense == ">=":
            return max(0.0, -v)
        return abs(v)


@dataclass
class Solution:
    """Solved program: optimal values and objective."""

    objective: float
    values: dict[Variable, float]
    status: str = "optimal"
    backend: str = "highs"

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value(self, expr: ExprLike) -> float:
        """Evaluate a Variable or LinExpr under this solution."""
        return LinExpr._coerce(expr).value(self.values)


class LinearProgram:
    """A max/min linear program over continuous and integer variables."""

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: LinExpr | None = None
        self._sense = "max"

    # -- construction ---------------------------------------------------

    def add_variable(
        self, name: str, lower: float = 0.0, upper: float | None = None, integer: bool = False
    ) -> Variable:
        var = Variable(name, lower, upper, integer)
        var.index = len(self.variables)
        self.variables.append(var)
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint.name = name
        for var in constraint.expr.terms:
            if var.index is None or var.index >= len(self.variables) or self.variables[var.index] is not var:
                raise ValueError(f"constraint uses variable {var.name} not belonging to this program")
        self.constraints.append(constraint)
        return constraint

    def maximize(self, expr: ExprLike) -> None:
        self._objective = LinExpr._coerce(expr)
        self._sense = "max"

    def minimize(self, expr: ExprLike) -> None:
        self._objective = LinExpr._coerce(expr)
        self._sense = "min"

    # -- compilation ---------------------------------------------------------

    def _compile(self) -> CompiledProgram:
        """Build (c, A_ub, b_ub, A_eq, b_eq, bounds) for minimization."""
        if self._objective is None:
            raise SolveError("no objective set")
        n = len(self.variables)
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            if var.index is None or var.index >= n or self.variables[var.index] is not var:
                raise SolveError(f"objective uses variable {var.name} not belonging to this program")
            c[var.index] = coef
        if self._sense == "max":
            c = -c
        rows_ub: list[FloatArray] = []
        rhs_ub: list[float] = []
        rows_eq: list[FloatArray] = []
        rhs_eq: list[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for var, coef in con.expr.terms.items():
                if var.index is None:  # add_constraint already validated membership
                    raise SolveError(f"constraint uses unregistered variable {var.name}")
                row[var.index] = coef
            rhs = -con.expr.constant
            if con.sense == "<=":
                rows_ub.append(row)
                rhs_ub.append(rhs)
            elif con.sense == ">=":
                rows_ub.append(-row)
                rhs_ub.append(-rhs)
            else:
                rows_eq.append(row)
                rhs_eq.append(rhs)
        a_ub = np.array(rows_ub) if rows_ub else None
        b_ub = np.array(rhs_ub) if rhs_ub else None
        a_eq = np.array(rows_eq) if rows_eq else None
        b_eq = np.array(rhs_eq) if rhs_eq else None
        bounds: Bounds = [(v.lower, v.upper) for v in self.variables]
        return c, a_ub, b_ub, a_eq, b_eq, bounds

    # -- solving ----------------------------------------------------------------

    def solve(self, backend: str = "highs") -> Solution:
        """Solve the LP relaxation (integrality handled by the caller).

        ``backend`` is ``"highs"`` (scipy) or ``"simplex"`` (the built-in
        dense two-phase simplex).
        """
        c, a_ub, b_ub, a_eq, b_eq, bounds = self._compile()
        if backend == "highs":
            values, objective = self._solve_highs(c, a_ub, b_ub, a_eq, b_eq, bounds)
        elif backend == "simplex":
            from repro.lp.simplex import solve_simplex

            result = solve_simplex(c, a_ub, b_ub, a_eq, b_eq, bounds)
            if not result.success:
                raise SolveError(f"simplex backend failed: {result.status}")
            values, objective = result.x, result.objective
        else:
            raise ValueError(f"unknown backend {backend!r}")
        if self._sense == "max":
            objective = -objective
        assignment = {var: float(values[i]) for i, var in enumerate(self.variables)}
        return Solution(objective=float(objective), values=assignment, backend=backend)

    @staticmethod
    def _solve_highs(
        c: FloatArray,
        a_ub: FloatArray | None,
        b_ub: FloatArray | None,
        a_eq: FloatArray | None,
        b_eq: FloatArray | None,
        bounds: Bounds,
    ) -> tuple[FloatArray, float]:
        from scipy.optimize import linprog

        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if not res.success:
            raise SolveError(f"HiGHS failed: {res.message}")
        return np.asarray(res.x, dtype=np.float64), float(res.fun)

    def __repr__(self) -> str:
        return f"LinearProgram({len(self.variables)} vars, {len(self.constraints)} constraints, {self._sense})"
