"""Solver equivalence: array pivots ≡ row loops, slack start ≡ two-phase ≡ HiGHS.

Two independent oracles guard the simplex rewrite:

- the *row-loop reference* below — the per-row ``_pivot`` the solver
  used before its pivots became array operations, and the pivot rule
  (Dantzig pricing, Bland's after ``DEGENERATE_RUN`` degenerate pivots)
  written out as plain loops and comprehensions.  It lives only here;
  every ``_pivot_loop`` the solver runs is shadowed by it on a copy of
  the tableau and must leave the identical tableau, basis, iteration
  count and status;
- HiGHS, and the solver's own two-phase path (forced by a redundant
  ``0·x = 0`` equality row), against the slack start on packing LPs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.lp import simplex
from repro.lp.simplex import solve_simplex
from tests.lp.test_pivot_rule import BEALE

_EPS = simplex._EPS


# -- the row-loop reference (the pre-vectorisation solver core) ---------------


def _reference_pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > _EPS:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _reference_pivot_loop(tableau: np.ndarray, basis: list[int], max_iter: int) -> tuple[int, str]:
    m = tableau.shape[0] - 1
    degenerate = 0
    for iteration in range(max_iter):
        obj = tableau[m, :-1].tolist()
        if degenerate < simplex.DEGENERATE_RUN:
            # Dantzig: the most negative reduced cost, the lowest index on ties.
            col = min(range(len(obj)), key=lambda j: (obj[j], j))
            if not obj[col] < -_EPS:
                return iteration, "optimal"
        else:
            # Bland: the lowest index that improves.
            candidates = [j for j in range(len(obj)) if obj[j] < -_EPS]
            if not candidates:
                return iteration, "optimal"
            col = candidates[0]
        ratios = {i: tableau[i, -1] / tableau[i, col] for i in range(m) if tableau[i, col] > _EPS}
        if not ratios:
            return iteration, "unbounded"
        best = min(ratios.values())
        tied = [i for i, ratio in ratios.items() if ratio <= best + _EPS]
        row = min(tied, key=lambda i: basis[i])
        degenerate = degenerate + 1 if best <= _EPS else 0
        _reference_pivot(tableau, basis, row, col)
    return max_iter, "iteration limit"


@pytest.fixture
def shadowed(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Run the reference beside every ``_pivot_loop``; returns pivot counts."""
    real = simplex._pivot_loop
    pivots: list[int] = []

    def checked(tableau: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[int, str]:
        ref_tableau, ref_basis = tableau.copy(), basis.tolist()
        expected = _reference_pivot_loop(ref_tableau, ref_basis, max_iter)
        got = real(tableau, basis, max_iter)
        assert got == expected
        assert np.array_equal(tableau, ref_tableau)
        assert basis.tolist() == ref_basis
        pivots.append(got[0])
        return got

    monkeypatch.setattr(simplex, "_pivot_loop", checked)
    return pivots


# -- programs -----------------------------------------------------------------

Bounds = list[tuple[float, float | None]]


def _packing_lp(seed: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Bounds]:
    """A seeded LP of the fleet's shape: ≤ rows, rhs ≥ 0 with exact zeros."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 1.0, (m, n)) * (rng.random((m, n)) < 0.4)
    a[rng.integers(0, m, n), np.arange(n)] += 0.5  # every column is bounded by some row
    b = rng.uniform(1.0, 10.0, m)
    b[rng.random(m) < 0.25] = 0.0
    c = -rng.uniform(0.5, 1.5, n)
    bounds: Bounds = [
        (0.0, float(rng.uniform(0.5, 5.0)) if rng.random() < 0.3 else None) for _ in range(n)
    ]
    return c, a, b, bounds


def _force_two_phase(n: int) -> dict[str, np.ndarray]:
    """A redundant ``0·x = 0`` row: changes no solution, forbids the slack start."""
    return {"a_eq": np.zeros((1, n)), "b_eq": np.zeros(1)}


#: The programs ``tests/lp`` solves by hand, as solve_simplex keyword sets.
_SUITE_PROGRAMS: list[dict[str, object]] = [
    dict(c=[-1.0, -2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0]),
    dict(c=[-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], bounds=[(0, 3), (0, 2)]),
    dict(c=[-1.0, -1.0], a_ub=[[2.0, 1.0]], b_ub=[10.0], bounds=[(0.0, 3.0), (1.0, 4.0)]),
    dict(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[5.0]),
    dict(c=[1.0, 1.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[4.0, 8.0]),
    dict(c=[-1.0, -1.0], a_ub=[[1.0, 0.0]], b_ub=[2.0], a_eq=[[0.0, 1.0]], b_eq=[3.0]),
    dict(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0]),  # infeasible
    dict(c=[-1.0]),  # unbounded
    dict(c=[1.0], bounds=[(5.0, 10.0)]),
    dict(
        c=[-1.0, -1.0, -1.0],
        a_ub=[[1.0, 0, 0], [1.0, 1.0, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
        b_ub=[1.0, 1.0, 1.0, 1.0],
    ),
    BEALE,  # sixteen degenerate pivots, then a Bland stretch
]


class TestArrayPivotsMatchRowLoops:
    def test_single_pivot_on_random_tableaus(self, rng: np.random.Generator):
        for _ in range(200):
            rows, cols = int(rng.integers(2, 20)), int(rng.integers(20, 40))
            tableau = rng.uniform(-2.0, 2.0, (rows, cols)) * (rng.random((rows, cols)) < 0.6)
            # Sub-tolerance dust must be masked out exactly as the loop skips it.
            tableau[rng.random((rows, cols)) < 0.05] = 5e-10
            # Any constraint row and structural column (not the objective row or the rhs).
            row, col = int(rng.integers(0, rows - 1)), int(rng.integers(0, cols - 1))
            tableau[row, col] = float(rng.uniform(0.1, 2.0))
            basis = rng.permutation(cols - 1)[: rows - 1]
            ref_tableau, ref_basis = tableau.copy(), basis.tolist()
            simplex._pivot(tableau, basis, row, col)
            _reference_pivot(ref_tableau, ref_basis, row, col)
            assert np.array_equal(tableau, ref_tableau)
            assert basis.tolist() == ref_basis

    def test_suite_programs_through_every_path(self, shadowed: list[int]):
        for program in _SUITE_PROGRAMS:
            result = solve_simplex(**program)  # type: ignore[arg-type]
            if result.basis is not None:
                solve_simplex(**program, initial_basis=result.basis)  # type: ignore[arg-type]
        assert sum(shadowed) > 0

    def test_random_programs_through_every_path(self, shadowed: list[int], rng: np.random.Generator):
        for _ in range(60):
            n, m = int(rng.integers(1, 13)), int(rng.integers(1, 17))
            c, a, b, bounds = _packing_lp(int(rng.integers(0, 2**31)), n, m)
            cold = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds)
            solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds, **_force_two_phase(n))
            solve_simplex(c, a_ub=a, b_ub=b * 1.03, bounds=bounds, initial_basis=cold.basis)
            b_neg = b.copy()
            b_neg[0] = -1.0  # a ≥ row: phase 1 has real work to do
            solve_simplex(c, a_ub=a, b_ub=b_neg, bounds=bounds)
        assert sum(shadowed) > 500


@st.composite
def packing_lps(draw: st.DrawFn) -> tuple[np.ndarray, np.ndarray, np.ndarray, Bounds]:
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=16))
    return _packing_lp(draw(st.integers(min_value=0, max_value=2**31 - 1)), n, m)


class TestSlackStart:
    @settings(max_examples=150, deadline=None)
    @given(lp=packing_lps())
    def test_agrees_with_two_phase_and_highs(self, lp):
        c, a, b, bounds = lp
        slack = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds)
        two_phase = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds, **_force_two_phase(len(c)))
        highs = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
        assert slack.status == two_phase.status == "optimal" and highs.status == 0
        for ours in (slack, two_phase):
            assert ours.objective == pytest.approx(highs.fun, abs=1e-9)
            np.testing.assert_allclose(ours.x, highs.x, atol=1e-7, rtol=0)

    @settings(max_examples=50, deadline=None)
    @given(lp=packing_lps())
    def test_basis_is_always_warm_startable(self, lp):
        c, a, b, bounds = lp
        cold = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds)
        assert cold.success and cold.basis is not None and not cold.warm_started
        warm = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds, initial_basis=cold.basis)
        assert warm.warm_started and warm.iterations == 0
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9, rtol=0)

    def test_unbounded_packing_program_is_typed(self):
        # No row caps x1: the slack start must report it, not loop or raise.
        res = solve_simplex([-1.0, -1.0], a_ub=[[1.0, 0.0]], b_ub=[4.0])
        assert not res.success and res.status == "unbounded" and res.basis is None


class TestTwoPhaseStillTakenWhenNeeded:
    """Inputs the slack basis cannot serve go through phase 1 as before.

    ``iterations`` tells the paths apart: with ``m`` rows phase 1 needs
    at least one pivot per artificial it drives out.
    """

    def test_negative_rhs(self):
        # x ≥ 3 written as −x ≤ −3: x = 0 is infeasible, so no slack start.
        res = solve_simplex([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-3.0, 8.0])
        assert res.success and res.x[0] == pytest.approx(3.0)
        assert res.iterations >= 2

    def test_lower_bound_shift_can_make_rhs_negative(self):
        # x0 + x1 ≤ 4 with x0 ≥ 5: the shifted rhs is −1 — infeasible, found by phase 1.
        res = solve_simplex([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], bounds=[(5.0, None), (0.0, None)])
        assert not res.success and res.status == "infeasible"

    def test_equality_row(self):
        res = solve_simplex([1.0, 2.0], a_ub=[[1.0, 0.0]], b_ub=[3.0], a_eq=[[1.0, 1.0]], b_eq=[5.0])
        assert res.success and res.x == pytest.approx([3.0, 2.0])

    def test_unbounded_behind_an_equality(self):
        res = solve_simplex([-1.0, 0.0], a_eq=[[0.0, 1.0]], b_eq=[1.0])
        assert not res.success and res.status == "unbounded"

    def test_stale_basis_falls_back_to_the_slack_start(self):
        c, a, b, bounds = _packing_lp(7, 6, 9)
        cold = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds)
        stale = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds, initial_basis=(0,) * len(cold.basis or ()))
        assert stale.success and not stale.warm_started
        assert stale.iterations == cold.iterations
        assert np.array_equal(stale.x, cold.x)
