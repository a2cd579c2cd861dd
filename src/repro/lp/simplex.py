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
cols)).  The entering variable is priced by Dantzig's rule (most
negative reduced cost), which takes about half the pivots Bland's does
on the fleet's programs; after :data:`DEGENERATE_RUN` degenerate pivots
in a row it follows Bland's rule until the objective improves again, and
the leaving variable always breaks ratio ties by the lowest basic index,
so the solver cannot cycle.  Dense tableaus suit the few-hundred-
variable programs problem (2) produces on 5–20 data centers; whole-
fleet programs go to the sparse HiGHS backend.

A solve is *prepare* + *solve*: :class:`PreparedProgram` holds what does
not depend on the right-hand side and is reused for every rhs of one
matrix; :func:`solve_simplex` is the same code with a throw-away one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]

_EPS = 1e-9

#: Bases a :class:`PreparedProgram` keeps an inverse for — and so how many a
#: caller gains by offering; the least recently tried one goes first.
KEPT_BASES = 4

#: Degenerate pivots in a row after which :func:`_pivot_loop` stops pricing
#: by Dantzig's rule and enters by Bland's until the objective next improves.
DEGENERATE_RUN = 16


@dataclass
class SimplexResult:
    x: FloatArray
    objective: float
    success: bool
    status: str
    iterations: int = 0
    basis: tuple[int, ...] | None = None
    warm_started: bool = False


Basis = tuple[int, ...]


class PreparedProgram:
    """Everything about a program that does not depend on its right-hand side.

    Built once per matrix: the standard form (``<=`` rows, one bound row
    per variable in ``bounded``, equality rows, slack columns) and, for the
    :data:`KEPT_BASES` bases it was last warm-started from, each basis'
    inverse and whether its reduced costs were already optimal.  Reduced
    costs do not depend on the rhs, so a warm start from such a basis is
    ``x_B = B⁻¹ b``, the staleness test and the read-out — no tableau, no
    pivot loop.

    ``lower`` shifts every variable to ``x' >= 0``; each variable listed
    in ``bounded`` gets an ``x_j <= upper`` row whose value arrives with
    :meth:`solve`, parallel to ``bounded``.
    """

    def __init__(
        self,
        c: npt.ArrayLike,
        a_ub: npt.ArrayLike | None = None,
        a_eq: npt.ArrayLike | None = None,
        lower: npt.ArrayLike | None = None,
        bounded: Sequence[int] = (),
    ) -> None:
        self._cost = cost = np.asarray(c, dtype=np.float64)
        n = cost.shape[0]
        self._shift = shift = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64)
        no_rows = np.zeros((0, n))
        # The matrices are kept by reference: the caller must not write to them.
        self._a_ub = ub_a = np.asarray(no_rows if a_ub is None else a_ub, dtype=np.float64).reshape(-1, n)
        self._a_eq = eq_a = np.asarray(no_rows if a_eq is None else a_eq, dtype=np.float64).reshape(-1, n)
        self.bounded = tuple(bounded)
        columns = np.asarray(self.bounded, dtype=np.intp)
        m_ub = ub_a.shape[0] + columns.shape[0]
        self._dims = (m_ub + eq_a.shape[0], n + m_ub)
        # Where the standard form's ones go: a bound row per bounded
        # variable under the <= rows, a slack column per <= or bound row.
        self._bound_at = (np.arange(ub_a.shape[0], m_ub), columns)
        self._slack_at = (np.arange(m_ub), n + np.arange(m_ub))
        self._rhs_shift = np.concatenate([ub_a @ shift, shift[columns], eq_a @ shift])
        #: basis -> (B⁻¹ or None if unusable, reduced costs optimal, its columns);
        #: dict order is recency.
        self._known: dict[Basis, tuple[FloatArray | None, bool, IntArray]] = {}

    def _standard_form(self, neg: npt.NDArray[np.bool_]) -> FloatArray:
        """Dense ``[A | I]`` with the ``neg`` rows negated (their rhs was negative).

        Mostly zeros, so it is assembled per solve rather than kept.
        """
        n = self._cost.shape[0]
        m_ub = self._dims[1] - n
        big_a = np.zeros(self._dims)
        big_a[: self._a_ub.shape[0], :n] = self._a_ub
        big_a[self._bound_at] = 1.0
        big_a[self._slack_at] = 1.0
        big_a[m_ub:, :n] = self._a_eq
        big_a[neg] *= -1
        return big_a

    def solve(
        self,
        b_ub: npt.ArrayLike | None = None,
        b_eq: npt.ArrayLike | None = None,
        upper: npt.ArrayLike = (),
        max_iter: int = 20000,
        initial_bases: Iterable[Basis] = (),
    ) -> SimplexResult:
        """Solve for one right-hand side; see :func:`solve_simplex`.

        ``initial_bases`` are tried in order and the first that is still
        primal-feasible for this rhs answers; a basis that was optimal for
        *some* rhs of this program is dual-feasible for every rhs, so that
        answer takes no pivot.
        """
        n = self._cost.shape[0]
        m, total = self._dims
        parts = [np.asarray(b, dtype=np.float64).ravel() for b in (b_ub, upper, b_eq) if b is not None]
        big_b = np.concatenate(parts) - self._rhs_shift
        # Make every rhs non-negative for phase 1.
        neg = big_b < 0
        flipped = bool(neg.any())
        big_b[neg] *= -1

        # --- warm start: reuse a prior basis, skipping phase 1 when it is
        # still primal-feasible for the new rhs.
        for basis in initial_bases:
            warm = self._warm_start(big_b, neg, flipped, basis, max_iter)
            if warm is not None:
                return warm
        big_a = self._standard_form(neg)

        # --- slack start: with only <= rows and no negative rhs the slack
        # columns are a feasible basis already (x = 0), so there is nothing
        # for phase 1 to find and no artificial column to carry.
        if self._a_eq.shape[0] == 0 and not flipped:
            tableau_s = _phase2_tableau(big_a, big_b, self._cost)
            basis_s = np.arange(n, total, dtype=np.intp)
            iters_s, status = _pivot_loop(tableau_s, basis_s, max_iter)
            if status != "optimal":
                return SimplexResult(np.zeros(n), 0.0, False, status, iters_s)
            return self._optimal(tableau_s[:-1, -1], basis_s, iters_s)

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
        tableau2 = _phase2_tableau(tableau[:m, :total], tableau[:m, -1], self._cost)
        _price_out(tableau2, basis)

        iters2, status = _pivot_loop(tableau2, basis, max_iter)
        if status != "optimal":
            return SimplexResult(np.zeros(n), 0.0, False, status, iters1 + iters2)
        return self._optimal(tableau2[:-1, -1], basis, iters1 + iters2)

    def _warm_start(
        self, big_b: FloatArray, neg: npt.NDArray[np.bool_], flipped: bool, basis: Basis, max_iter: int
    ) -> SimplexResult | None:
        """Phase 2 from a cached basis; None when it is stale for this rhs.

        The basis is stale when its shape no longer matches the program,
        the basis matrix is singular, or the implied vertex is primal
        infeasible for the new rhs (a basic value would be negative).
        What is remembered per basis describes the unflipped standard
        form only; a program with a negative rhs pays for its own inverse.
        """
        big_a: FloatArray | None = None
        known = None if flipped else self._known.pop(basis, None)
        if known is None:
            big_a = self._standard_form(neg)
            known = (_basis_inverse(big_a, basis), False, np.array(basis, dtype=np.intp))
        binv, settled, columns = known
        if not flipped:
            self._known[basis] = known
            if len(self._known) > KEPT_BASES:
                del self._known[next(iter(self._known))]
        if binv is None:
            return None
        x_basic = binv @ big_b
        if not np.minimum.reduce(x_basic, initial=0.0) >= -1e-7:  # NaN counts as stale
            return None
        vertex = np.maximum(x_basic, 0.0)
        if settled:  # already optimal: read the vertex off, no tableau
            x = np.zeros(self._dims[1])
            x[columns] = vertex
            solution = x[: self._cost.shape[0]] + self._shift
            return SimplexResult(
                solution, float(self._cost @ solution), True, "optimal", basis=basis, warm_started=True
            )
        if big_a is None:
            big_a = self._standard_form(neg)
        tableau = _phase2_tableau(binv @ big_a, vertex, self._cost)
        warm_basis = columns.copy()  # the pivot loop rewrites it
        _price_out(tableau, warm_basis)
        if not flipped:
            self._known[basis] = (binv, not (tableau[-1, :-1] < -_EPS).any(), columns)
        iters, status = _pivot_loop(tableau, warm_basis, max_iter)
        if status == "optimal":
            return self._optimal(tableau[:-1, -1], warm_basis, iters, warm_started=True)
        if status == "unbounded":
            return SimplexResult(
                np.zeros(self._cost.shape[0]), 0.0, False, status, iters, warm_started=True
            )
        return None  # iteration limit from a warm vertex: retry cold

    def _optimal(
        self, basic_values: FloatArray, basis: IntArray, iterations: int, warm_started: bool = False
    ) -> SimplexResult:
        """Read the vertex off an optimal basis and undo the bound shift."""
        total = self._dims[1]
        x = np.zeros(total)
        real = basis < total
        x[basis[real]] = basic_values[real]
        solution = x[: self._cost.shape[0]] + self._shift
        # Only a basis made purely of structural/slack columns can seed a
        # warm start; a leftover artificial (redundant row) poisons it.
        return SimplexResult(
            solution,
            float(self._cost @ solution),
            True,
            "optimal",
            iterations,
            basis=tuple(basis.tolist()) if real.all() else None,
            warm_started=warm_started,
        )


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

    The one-shot form: a throw-away :class:`PreparedProgram`, solved once.

    ``initial_basis`` is the ``basis`` of a previous :class:`SimplexResult`
    for a program with the *same standard-form shape* (same variables,
    same rows in the same order — typically the same program with a
    different rhs).  When the cached basis is still primal-feasible the
    solve starts phase 2 from that vertex; when it is stale (singular,
    infeasible, or shaped wrong) the solver silently falls back to the
    cold path — the slack start if the program allows it, else two-phase
    — so passing a basis is always safe.
    """
    lower: list[float] = []
    bounded: list[int] = []
    upper: list[float] = []
    for j, (lo, hi) in enumerate(bounds if bounds is not None else ()):
        if lo is None or lo == -np.inf:
            # Free-below variables are not produced by our modeling layer
            # (everything in problem (2) is >= 0); reject loudly.
            raise ValueError("simplex backend requires finite lower bounds")
        lower.append(float(lo))
        if hi is not None and hi != np.inf:
            bounded.append(j)
            upper.append(float(hi))
    program = PreparedProgram(
        c,
        a_ub if b_ub is not None else None,
        a_eq if b_eq is not None else None,
        lower or None,
        bounded,
    )
    return program.solve(
        b_ub if a_ub is not None else None,
        b_eq if a_eq is not None else None,
        upper,
        max_iter,
        () if initial_basis is None else (tuple(int(b) for b in initial_basis),),
    )


def _phase2_tableau(body: FloatArray, rhs: FloatArray, cost: FloatArray) -> FloatArray:
    """``[body | rhs]`` over the real objective row (not yet priced out)."""
    m, total = body.shape
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = body
    tableau[:m, -1] = rhs
    tableau[m, : cost.shape[0]] = cost
    return tableau


def _price_out(tableau: FloatArray, basis: IntArray) -> None:
    """Zero the objective row's reduced cost on every real basic column."""
    m, total = tableau.shape[0] - 1, tableau.shape[1] - 1
    for i, bv in enumerate(basis.tolist()):
        if bv < total and abs(tableau[m, bv]) > _EPS:
            tableau[m] -= tableau[m, bv] * tableau[i]


def _basis_inverse(big_a: FloatArray, basis: Basis) -> FloatArray | None:
    """``B⁻¹`` of a cached basis; None when no rhs could make it usable."""
    m, total = big_a.shape
    if len(basis) != m or len(set(basis)) != m:
        return None
    if any(b < 0 or b >= total for b in basis):
        return None
    try:
        binv: FloatArray = np.linalg.inv(big_a[:, list(basis)])
    except np.linalg.LinAlgError:
        return None
    return binv if np.isfinite(binv).all() else None


def _pivot_loop(tableau: FloatArray, basis: IntArray, max_iter: int) -> tuple[int, str]:
    """Run simplex pivots until optimal/unbounded.

    Dantzig pricing: the most negative reduced cost enters, the lowest
    index winning ties.  After :data:`DEGENERATE_RUN` degenerate pivots in
    a row the entering variable follows Bland's rule instead, until a pivot
    strictly improves the objective.  The leaving row always goes to the
    lowest basic index among ratio ties, so a Bland stretch cannot cycle
    and the objective strictly falls between stretches: the loop ends.
    """
    m = tableau.shape[0] - 1
    obj = tableau[m, :-1]
    rhs = tableau[:m, -1]
    degenerate = 0
    for iteration in range(max_iter):
        if degenerate < DEGENERATE_RUN:
            col = int(obj.argmin())
            if not obj[col] < -_EPS:
                return iteration, "optimal"
        else:
            candidates = (obj < -_EPS).nonzero()[0]
            if candidates.size == 0:
                return iteration, "optimal"
            col = int(candidates[0])
        column = tableau[:m, col]
        rows = (column > _EPS).nonzero()[0]
        if rows.size == 0:  # no row limits the entering variable
            return iteration, "unbounded"
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + _EPS]
        row = int(tied[basis[tied].argmin()])
        degenerate = degenerate + 1 if best <= _EPS else 0
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
