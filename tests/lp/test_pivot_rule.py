"""The pivot rule: Dantzig pricing, and Bland's rule only after a degenerate run.

Two things a pricing rule can get wrong that the equivalence suite cannot
see, because its reference follows the same rule:

- **termination.** Beale's (1955) LP cycles for ever under pure Dantzig
  pricing with lowest-index ties; the fallback must break the cycle;
- **the answer.** On highly degenerate packing LPs — zero and −1e-12
  right-hand sides, duplicated rows, integer data that ties ratios and
  reduced costs — whatever vertex the rule stops at must carry HiGHS's
  objective and pass the solver-independent optimality certificate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.lp import simplex
from repro.lp.simplex import PreparedProgram, solve_simplex
from tests.lp.certificate import certify

#: Beale's example: minimize −¾x₁ + 20x₂ − ½x₃ + 6x₄; the optimum is −5/4 at (1, 0, 1, 0).
BEALE = dict(
    c=[-0.75, 20.0, -0.5, 6.0],
    a_ub=[[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    b_ub=[0.0, 0.0, 1.0],
)


class TestBealeCycle:
    def test_pure_dantzig_pricing_cycles(self, monkeypatch: pytest.MonkeyPatch):
        # The witness that the fallback is load-bearing: without it the
        # loop returns to the slack basis every six pivots.
        monkeypatch.setattr(simplex, "DEGENERATE_RUN", 10**9)
        result = solve_simplex(**BEALE, max_iter=1000)  # type: ignore[arg-type]
        assert result.status == "iteration limit"

    def test_the_bland_fallback_reaches_the_optimum(self):
        result = solve_simplex(**BEALE)  # type: ignore[arg-type]
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-1.25, abs=1e-12)
        np.testing.assert_allclose(result.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert result.iterations <= 2 * simplex.DEGENERATE_RUN

    def test_two_phase_breaks_the_cycle_too(self):
        result = solve_simplex(**BEALE, a_eq=np.zeros((1, 4)), b_eq=np.zeros(1))  # type: ignore[arg-type]
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-1.25, abs=1e-12)


#: ``(c, a, b, bounded, upper)`` of a packing LP with upper-bounded columns.
DegenerateLP = tuple[np.ndarray, np.ndarray, np.ndarray, list[int], np.ndarray]


@st.composite
def degenerate_packing_lps(draw: st.DrawFn) -> DegenerateLP:
    """``(c, a, b, bounded, upper)``: a packing LP built to tie and stall.

    Small integer coefficients tie ratios and reduced costs; half the
    rows have a zero rhs, some of those −1e-12 dust (which forces the
    two-phase path), and some rows appear twice.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=1, max_value=12))
    a = rng.integers(0, 3, (m, n)).astype(float)
    a[rng.integers(0, m, n), np.arange(n)] += 1.0  # every column is bounded by some row
    b = rng.integers(1, 4, m).astype(float)
    b[rng.random(m) < 0.5] = 0.0
    twins = rng.integers(0, m, draw(st.integers(min_value=0, max_value=3)))
    a, b = np.vstack([a, a[twins]]), np.concatenate([b, b[twins]])
    b[(b == 0.0) & (rng.random(b.shape[0]) < draw(st.sampled_from([0.0, 0.3])))] = -1e-12
    c = -rng.integers(1, 4, n).astype(float)
    bounded = [j for j in range(n) if rng.random() < 0.3]
    upper = rng.integers(0, 3, len(bounded)).astype(float)
    return c, a, b, bounded, upper


@pytest.mark.parametrize(
    "run", [simplex.DEGENERATE_RUN, 2, 0], ids=["default-run", "short-run", "pure-bland"]
)
@settings(max_examples=120, deadline=None)
@given(lp=degenerate_packing_lps())
def test_degenerate_packing_lps_are_certified_optimal(run, lp):
    # A short run switches rules every few pivots (at the default length
    # these small programs rarely reach it); a zero run is Bland throughout.
    c, a, b, bounded, upper = lp
    program = PreparedProgram(c, a, bounded=bounded)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "DEGENERATE_RUN", run)
        result = program.solve(b, upper=upper)
    certify(program, b, upper, result)
    bounds: list[tuple[float, float | None]] = [(0.0, None)] * len(c)
    for j, hi in zip(bounded, upper):
        bounds[j] = (0.0, float(hi))
    highs = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    assert highs.status == 0
    assert result.objective == pytest.approx(highs.fun, abs=1e-9)
