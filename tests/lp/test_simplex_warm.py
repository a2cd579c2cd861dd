"""Warm-start simplex: basis reuse, fallback safety, and equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.simplex import solve_simplex
from repro.util.rng import derive_rng


def _toy_lp(rhs=(4.0, 6.0)):
    # max x0 + 2 x1  s.t.  x0 + x1 <= rhs0,  x0 + 3 x1 <= rhs1
    c = [-1.0, -2.0]
    a_ub = [[1.0, 1.0], [1.0, 3.0]]
    return c, a_ub, list(rhs)


class TestWarmStartBasics:
    def test_cold_solve_exports_basis(self):
        c, a, b = _toy_lp()
        res = solve_simplex(c, a_ub=a, b_ub=b)
        assert res.success
        assert res.basis is not None
        assert len(res.basis) == 2
        assert not res.warm_started

    def test_warm_resolve_same_rhs_takes_zero_pivots(self):
        c, a, b = _toy_lp()
        cold = solve_simplex(c, a_ub=a, b_ub=b)
        warm = solve_simplex(c, a_ub=a, b_ub=b, initial_basis=cold.basis)
        assert warm.success and warm.warm_started
        assert warm.iterations == 0
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)

    def test_warm_resolve_perturbed_rhs_matches_cold(self):
        c, a, b = _toy_lp()
        cold0 = solve_simplex(c, a_ub=a, b_ub=b)
        b2 = [5.0, 7.5]
        cold2 = solve_simplex(c, a_ub=a, b_ub=b2)
        warm2 = solve_simplex(c, a_ub=a, b_ub=b2, initial_basis=cold0.basis)
        assert warm2.success and warm2.warm_started
        assert warm2.objective == pytest.approx(cold2.objective, abs=1e-8)
        assert warm2.iterations <= cold2.iterations

    def test_warm_uses_fewer_iterations_on_rhs_delta(self):
        rng = derive_rng("lp.warm.iters")
        n, m = 12, 18
        a = rng.uniform(0.0, 1.0, size=(m, n))
        c = -rng.uniform(0.5, 1.5, size=n)
        b = rng.uniform(5.0, 10.0, size=m)
        cold = solve_simplex(c, a_ub=a, b_ub=b)
        assert cold.success and cold.basis is not None
        b2 = b * 1.02
        cold2 = solve_simplex(c, a_ub=a, b_ub=b2)
        warm2 = solve_simplex(c, a_ub=a, b_ub=b2, initial_basis=cold.basis)
        assert warm2.success
        assert warm2.objective == pytest.approx(cold2.objective, rel=1e-7, abs=1e-7)
        assert warm2.iterations < cold2.iterations

    def test_bounded_variables_roundtrip(self):
        # Bounds become extra rows; the basis must survive the expansion.
        c = [-1.0, -1.0]
        a = [[2.0, 1.0]]
        b = [10.0]
        bounds = [(0.0, 3.0), (1.0, 4.0)]
        cold = solve_simplex(c, a_ub=a, b_ub=b, bounds=bounds)
        warm = solve_simplex(c, a_ub=a, b_ub=[9.0], bounds=bounds, initial_basis=cold.basis)
        ref = solve_simplex(c, a_ub=a, b_ub=[9.0], bounds=bounds)
        assert warm.success
        assert warm.objective == pytest.approx(ref.objective, abs=1e-8)


class TestStaleBasisFallback:
    def test_wrong_length_basis_falls_back_cold(self):
        c, a, b = _toy_lp()
        res = solve_simplex(c, a_ub=a, b_ub=b, initial_basis=(0,))
        assert res.success and not res.warm_started
        assert res.objective == pytest.approx(solve_simplex(c, a_ub=a, b_ub=b).objective)

    def test_out_of_range_basis_falls_back_cold(self):
        c, a, b = _toy_lp()
        res = solve_simplex(c, a_ub=a, b_ub=b, initial_basis=(0, 99))
        assert res.success and not res.warm_started

    def test_duplicate_basis_falls_back_cold(self):
        c, a, b = _toy_lp()
        res = solve_simplex(c, a_ub=a, b_ub=b, initial_basis=(1, 1))
        assert res.success and not res.warm_started

    def test_infeasible_vertex_falls_back_cold(self):
        # Basis {x0-slack rows} implies negative basic values once the
        # rhs shrinks below the old vertex — must fall back, not fail.
        c, a, b = _toy_lp()
        cold = solve_simplex(c, a_ub=a, b_ub=b)
        tight = solve_simplex(c, a_ub=a, b_ub=[0.5, 0.5], initial_basis=cold.basis)
        ref = solve_simplex(c, a_ub=a, b_ub=[0.5, 0.5])
        assert tight.success
        assert tight.objective == pytest.approx(ref.objective, abs=1e-8)

    def test_infinite_upper_bound_is_no_bound(self):
        # ``(0, inf)`` used to become an ``x <= inf`` row whose rhs turned
        # B⁻¹b into NaN: "optimal", x = [nan, 0], warm_started.
        c, a = [-1.0, -1.0], [[1.0, 1.0]]
        results = []
        for bounds in ([(0, None), (0, 3)], [(0, np.inf), (0, 3)]):
            first = solve_simplex(c, a_ub=a, b_ub=[4.0], bounds=bounds)
            warm = solve_simplex(c, a_ub=a, b_ub=[5.0], bounds=bounds, initial_basis=first.basis)
            results.append((first, warm))
        for plain, infinite in zip(*results):
            assert (plain.status, plain.iterations, plain.basis) == (
                infinite.status, infinite.iterations, infinite.basis
            )
            assert plain.x.tobytes() == infinite.x.tobytes()
        warm = results[1][1]
        assert warm.warm_started and warm.x.tolist() == [5.0, 0.0] and warm.objective == -5.0

    def test_nan_vertex_counts_as_stale(self):
        # An infinite rhs makes B⁻¹b NaN (inf·0), and ``nan < -1e-7`` is False:
        # the staleness test must send it to the cold path, not read it out.
        c, a = [-1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]]
        basis = solve_simplex(c, a_ub=a, b_ub=[5.0, 7.0]).basis
        with np.errstate(invalid="ignore"):
            res = solve_simplex(c, a_ub=a, b_ub=[5.0, np.inf], initial_basis=basis)
        assert res.success and not res.warm_started
        assert np.isfinite(res.x).all() and res.objective == -5.0

    def test_infeasible_program_still_detected(self):
        # x <= -1 with x >= 0 is infeasible regardless of warm basis.
        res = solve_simplex([1.0], a_ub=[[1.0]], b_ub=[-1.0], initial_basis=(0,))
        assert not res.success
        assert res.status == "infeasible"


@st.composite
def _random_feasible_lp(draw):
    """Box-bounded LPs with nonnegative rows: origin always feasible."""
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = derive_rng("lp.warm.prop", seed)
    a = rng.uniform(0.0, 2.0, size=(m, n)).round(3)
    c = (-rng.uniform(0.1, 2.0, size=n)).round(3)
    b = rng.uniform(1.0, 8.0, size=m).round(3)
    scale = draw(st.floats(min_value=0.5, max_value=2.0))
    return c, a, b, (b * scale).round(3)


class TestWarmEqualsColdProperty:
    @settings(max_examples=30, deadline=None)
    @given(_random_feasible_lp())
    def test_warm_objective_equals_cold(self, lp):
        c, a, b, b2 = lp
        cold0 = solve_simplex(c, a_ub=a, b_ub=b)
        assert cold0.success
        cold2 = solve_simplex(c, a_ub=a, b_ub=b2)
        warm2 = solve_simplex(c, a_ub=a, b_ub=b2, initial_basis=cold0.basis)
        assert warm2.success == cold2.success
        if cold2.success:
            assert warm2.objective == pytest.approx(cold2.objective, rel=1e-6, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(_random_feasible_lp())
    def test_warm_result_reusable_as_basis(self, lp):
        c, a, b, b2 = lp
        first = solve_simplex(c, a_ub=a, b_ub=b)
        second = solve_simplex(c, a_ub=a, b_ub=b2, initial_basis=first.basis)
        assert second.success
        third = solve_simplex(c, a_ub=a, b_ub=b2, initial_basis=second.basis)
        assert third.success
        assert third.iterations == 0
        assert third.objective == pytest.approx(second.objective, abs=1e-8)
