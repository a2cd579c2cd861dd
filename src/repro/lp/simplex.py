"""Dense primal simplex over numpy: slack start, two-phase fallback.

A from-scratch LP solver: the fleet layer's per-session delta LPs run
on it (its exported basis warm-starts the next solve), the modeling
layer offers it as the ``"simplex"`` backend, and tests use it as an
independent cross-check of HiGHS.  It accepts the matrix form
:class:`repro.lp.model.LinearProgram` compiles to: minimize ``c @ x``
subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq`` and per-variable bounds.

Bounded variables are handled by shifting to zero lower bounds and
adding explicit upper-bound rows.  A program with no equality rows and
no negative shifted rhs (every packing LP the fleet builds) already has
a feasible basis — its slack columns — so phase 2 starts there on an
``(m+1)×(n+m+1)`` tableau; anything else goes through phase 1 with
``m`` artificial columns.  A pivot is one rank-1 numpy update (O(rows·
cols)) and both the entering and the leaving variable follow Bland's
rule, so the solver cannot cycle.  Dense tableaus suit the few-hundred-
variable programs problem (2) produces on 5–20 data centers; whole-
fleet programs go to the sparse HiGHS backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]

_EPS = 1e-9


@dataclass
class SimplexResult:
    x: FloatArray
    objective: float
    success: bool
    status: str
    iterations: int = 0
    basis: tuple[int, ...] | None = None
    warm_started: bool = False


def solve_simplex(
    c: npt.ArrayLike,
    a_ub: npt.ArrayLike | None = None,
    b_ub: npt.ArrayLike | None = None,
    a_eq: npt.ArrayLike | None = None,
    b_eq: npt.ArrayLike | None = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
    max_iter: int = 20000,
    initial_basis: Sequence[int] | None = None,
) -> SimplexResult:
    """Minimize ``c @ x`` subject to inequality/equality rows and bounds.

    ``initial_basis`` is the ``basis`` of a previous :class:`SimplexResult`
    for a program with the *same standard-form shape* (same variables,
    same rows in the same order — typically the same program with a
    different rhs).  When the cached basis is still primal-feasible the
    solve starts phase 2 from that vertex; when it is stale (singular,
    infeasible, or shaped wrong) the solver silently falls back to the
    cold path — the slack start if the program allows it, else two-phase
    — so passing a basis is always safe.
    """
    cost = np.asarray(c, dtype=np.float64)
    n = cost.shape[0]
    var_bounds: Sequence[tuple[float | None, float | None]] = (
        bounds if bounds is not None else [(0.0, None)] * n
    )

    # --- normalize variables to x' >= 0 by shifting lower bounds; finite
    # upper bounds become extra <= rows.
    shift = np.zeros(n)
    extra_rows: list[FloatArray] = []
    extra_rhs: list[float] = []
    for j, (lo, hi) in enumerate(var_bounds):
        if lo is None or lo == -np.inf:
            # Free-below variables are not produced by our modeling layer
            # (everything in problem (2) is >= 0); reject loudly.
            raise ValueError("simplex backend requires finite lower bounds")
        shift[j] = float(lo)
        if hi is not None:
            row = np.zeros(n)
            row[j] = 1.0
            extra_rows.append(row)
            extra_rhs.append(float(hi) - float(lo))

    def _shift_rhs(
        a: npt.ArrayLike | None, b: npt.ArrayLike | None
    ) -> tuple[FloatArray, FloatArray] | tuple[None, None]:
        if a is None or b is None:
            return None, None
        mat = np.asarray(a, dtype=np.float64).reshape(-1, n)
        rhs = np.asarray(b, dtype=np.float64).ravel() - mat @ shift
        return mat, rhs

    ub_a, ub_b = _shift_rhs(a_ub, b_ub)
    eq_a, eq_b = _shift_rhs(a_eq, b_eq)
    if extra_rows:
        extra = np.array(extra_rows)
        extra_b = np.array(extra_rhs)
        ub_a = extra if ub_a is None else np.vstack([ub_a, extra])
        ub_b = extra_b if ub_b is None else np.concatenate([ub_b, extra_b])

    # --- standard form: slacks for <= rows.
    m_ub = 0 if ub_a is None else ub_a.shape[0]
    m_eq = 0 if eq_a is None else eq_a.shape[0]
    m = m_ub + m_eq
    total = n + m_ub  # structural + slack
    big_a = np.zeros((m, total))
    big_b = np.zeros(m)
    if ub_a is not None and ub_b is not None:
        big_a[:m_ub, :n] = ub_a
        big_a[:m_ub, n : n + m_ub] = np.eye(m_ub)
        big_b[:m_ub] = ub_b
    if eq_a is not None and eq_b is not None:
        big_a[m_ub:, :n] = eq_a
        big_b[m_ub:] = eq_b
    # Make every rhs non-negative for phase 1.
    neg = big_b < 0
    big_a[neg] *= -1
    big_b[neg] *= -1

    # --- warm start: reuse a prior basis, skipping phase 1 when it is
    # still primal-feasible for the new rhs.
    if initial_basis is not None:
        warm = _warm_tableau(big_a, big_b, cost, initial_basis)
        if warm is not None:
            tableau_w, basis_w = warm
            iters_w, status_w = _pivot_loop(tableau_w, basis_w, max_iter)
            if status_w == "optimal":
                return _optimal(tableau_w, basis_w, cost, shift, iters_w, warm_started=True)
            if status_w == "unbounded":
                return SimplexResult(
                    np.zeros(n), 0.0, False, status_w, iters_w, warm_started=True
                )
            # Iteration limit from a warm vertex: fall through and retry cold.

    # --- slack start: with only <= rows and no negative rhs the slack
    # columns are a feasible basis already (x = 0), so there is nothing
    # for phase 1 to find and no artificial column to carry.
    if m_eq == 0 and not neg.any():
        tableau_s = _phase2_tableau(big_a, big_b, cost)
        basis_s = np.arange(n, total, dtype=np.intp)
        iters_s, status = _pivot_loop(tableau_s, basis_s, max_iter)
        if status != "optimal":
            return SimplexResult(np.zeros(n), 0.0, False, status, iters_s)
        return _optimal(tableau_s, basis_s, cost, shift, iters_s)

    # --- phase 1: artificial variables, minimize their sum.
    tableau = np.zeros((m + 1, total + m + 1))
    tableau[:m, :total] = big_a
    tableau[:m, total : total + m] = np.eye(m)
    tableau[:m, -1] = big_b
    tableau[m, total : total + m] = 1.0
    basis = np.arange(total, total + m, dtype=np.intp)
    # Price out artificials from the objective row.
    for i in range(m):
        tableau[m] -= tableau[i]

    iters1, status = _pivot_loop(tableau, basis, max_iter)
    if status != "optimal":
        return SimplexResult(np.zeros(n), 0.0, False, f"phase1 {status}", iters1)
    if tableau[m, -1] < -1e-7:
        return SimplexResult(np.zeros(n), 0.0, False, "infeasible", iters1)

    # Drive any artificial still in the basis out (degenerate rows).
    for i in np.flatnonzero(basis >= total):
        usable = np.flatnonzero(np.abs(tableau[i, :total]) > _EPS)
        if usable.size:  # else a redundant row: its artificial stays basic at 0
            _pivot(tableau, basis, int(i), int(usable[0]))

    # --- phase 2: real objective over the current basis.
    tableau2 = _phase2_tableau(tableau[:m, :total], tableau[:m, -1], cost)
    _price_out(tableau2, basis)

    iters2, status = _pivot_loop(tableau2, basis, max_iter)
    if status != "optimal":
        return SimplexResult(np.zeros(n), 0.0, False, status, iters1 + iters2)
    return _optimal(tableau2, basis, cost, shift, iters1 + iters2)


def _phase2_tableau(body: FloatArray, rhs: FloatArray, cost: FloatArray) -> FloatArray:
    """``[body | rhs]`` over the real objective row (not yet priced out)."""
    m, total = body.shape
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = body
    tableau[:m, -1] = rhs
    tableau[m, : cost.shape[0]] = cost
    return tableau


def _optimal(
    tableau: FloatArray,
    basis: IntArray,
    cost: FloatArray,
    shift: FloatArray,
    iterations: int,
    warm_started: bool = False,
) -> SimplexResult:
    """Read the vertex off an optimal phase-2 tableau and undo the bound shift."""
    total = tableau.shape[1] - 1
    x = np.zeros(total)
    real = basis < total
    x[basis[real]] = tableau[:-1, -1][real]
    solution = x[: cost.shape[0]] + shift
    # Only a basis made purely of structural/slack columns can seed a
    # warm start; a leftover artificial (redundant row) poisons it.
    return SimplexResult(
        solution,
        float(cost @ solution),
        True,
        "optimal",
        iterations,
        basis=tuple(basis.tolist()) if real.all() else None,
        warm_started=warm_started,
    )


def _price_out(tableau: FloatArray, basis: IntArray) -> None:
    """Zero the objective row's reduced cost on every real basic column."""
    m, total = tableau.shape[0] - 1, tableau.shape[1] - 1
    for i, bv in enumerate(basis.tolist()):
        if bv < total and abs(tableau[m, bv]) > _EPS:
            tableau[m] -= tableau[m, bv] * tableau[i]


def _warm_tableau(
    big_a: FloatArray,
    big_b: FloatArray,
    cost: FloatArray,
    initial_basis: Sequence[int],
) -> tuple[FloatArray, IntArray] | None:
    """Build a phase-2 tableau from a cached basis, or None if stale.

    The basis is stale when its shape no longer matches the program,
    the basis matrix is singular, or the implied vertex is primal
    infeasible for the new rhs (a basic value would be negative).
    """
    m, total = big_a.shape
    basis = [int(b) for b in initial_basis]
    if len(basis) != m or len(set(basis)) != m:
        return None
    if any(b < 0 or b >= total for b in basis):
        return None
    b_mat = big_a[:, basis]
    try:
        binv = np.linalg.inv(b_mat)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(binv).all():
        return None
    x_basic = binv @ big_b
    if x_basic.min() < -1e-7:
        return None
    tableau = _phase2_tableau(binv @ big_a, np.maximum(x_basic, 0.0), cost)
    warm_basis = np.array(basis, dtype=np.intp)
    _price_out(tableau, warm_basis)
    return tableau, warm_basis


def _pivot_loop(tableau: FloatArray, basis: IntArray, max_iter: int) -> tuple[int, str]:
    """Run simplex pivots until optimal/unbounded; Bland's rule."""
    m = tableau.shape[0] - 1
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    ratios = np.empty(m)
    for iteration in range(max_iter):
        candidates = (obj < -_EPS).nonzero()[0]
        if candidates.size == 0:
            return iteration, "optimal"
        col = int(candidates[0])  # Bland: smallest index
        column = tableau[:m, col]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _EPS)
        best = ratios.min(initial=np.inf)
        if not best < np.inf:  # no row limits the entering variable
            return iteration, "unbounded"
        # Bland tie-break on the leaving variable as well.
        tied = (ratios <= best + _EPS).nonzero()[0]
        row = int(tied[basis[tied].argmin()])
        _pivot(tableau, basis, row, col)
    return max_iter, "iteration limit"


def _pivot(tableau: FloatArray, basis: IntArray, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: one masked rank-1 update of the tableau."""
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    column = tableau[:, col]
    factors = np.where(np.abs(column) > _EPS, column, 0.0)  # 0 masks a row out
    factors[row] = 0.0
    tableau -= factors[:, None] * pivot_row
    basis[row] = col
