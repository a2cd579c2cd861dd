"""Dense simplex backend tests, including the HiGHS cross-check property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import LinearProgram
from repro.lp.simplex import solve_simplex


class TestDirectInterface:
    def test_basic_min(self):
        # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2 (via bounds).
        res = solve_simplex(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]),
            bounds=[(0, 3), (0, 2)],
        )
        assert res.success
        assert res.objective == pytest.approx(-6.0)
        assert res.x == pytest.approx([2.0, 2.0])

    def test_equality_rows(self):
        res = solve_simplex(
            c=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([5.0]),
            bounds=[(0, None), (0, None)],
        )
        assert res.success
        assert res.objective == pytest.approx(5.0)

    def test_infeasible(self):
        res = solve_simplex(
            c=np.array([1.0]),
            a_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([1.0, -3.0]),  # x <= 1 and x >= 3
            bounds=[(0, None)],
        )
        assert not res.success
        assert "infeasible" in res.status

    def test_unbounded(self):
        res = solve_simplex(c=np.array([-1.0]), bounds=[(0, None)])
        assert not res.success
        assert res.status in ("unbounded", "phase1 unbounded")

    def test_shifted_lower_bounds(self):
        res = solve_simplex(c=np.array([1.0]), bounds=[(5.0, 10.0)])
        assert res.success
        assert res.x[0] == pytest.approx(5.0)
        assert res.objective == pytest.approx(5.0)

    def test_degenerate_no_cycle(self):
        # Klee-Minty-flavoured degeneracy: the pivot rule must terminate.
        res = solve_simplex(
            c=np.array([-1.0, -1.0, -1.0]),
            a_ub=np.array([[1.0, 0, 0], [1.0, 1.0, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
            b_ub=np.array([1.0, 1.0, 1.0, 1.0]),
            bounds=[(0, None)] * 3,
        )
        assert res.success
        assert res.objective == pytest.approx(-1.0)


@st.composite
def random_lp(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    c = rng.uniform(-5, 5, n)
    a = rng.uniform(-2, 3, (m, n))
    b = rng.uniform(1, 10, m)  # positive rhs with x=0 feasible => bounded-ish
    upper = rng.uniform(1, 10, n)
    return c, a, b, [(0.0, float(u)) for u in upper]


@given(problem=random_lp())
@settings(max_examples=60, deadline=None)
def test_simplex_agrees_with_highs(problem):
    """Property: both backends find the same optimum on random LPs."""
    from scipy.optimize import linprog

    c, a, b, bounds = problem
    ours = solve_simplex(c=c, a_ub=a, b_ub=b, bounds=bounds)
    ref = linprog(c, A_ub=a, b_ub=b, bounds=bounds, method="highs")
    assert ours.success == ref.success
    if ref.success:
        assert ours.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def test_model_layer_cross_backend(butterfly_graph):
    """The deployment LP itself solves identically on both backends."""
    from repro.core.deployment import DataCenterSpec, DeploymentProblem
    from repro.core.session import MulticastSession

    dcs = [DataCenterSpec(n, 900, 900, 900) for n in ["O1", "C1", "T", "V2"]]
    problem = DeploymentProblem(butterfly_graph, dcs, alpha=1.0)
    session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
    demand = problem.build_demand(session)
    plan_highs = problem.solve([demand], backend="highs")
    plan_simplex = problem.solve([demand], backend="simplex")
    assert plan_highs.lambdas[session.session_id] == pytest.approx(
        plan_simplex.lambdas[session.session_id], rel=1e-5
    )
