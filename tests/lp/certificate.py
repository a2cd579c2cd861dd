"""An LP optimality certificate that shares nothing with the solver.

``certify`` rebuilds the standard form from the program's *inputs* (cost,
``<=`` matrix, which variables carry a bound row), never from a tableau, an
inverse or anything a :class:`~repro.lp.simplex.PreparedProgram` remembers
between solves.  A basis whose basic solution is primal feasible and whose
reduced costs are non-negative is optimal — whichever way the solver got
there: cold pivots, a remembered basis answered with ``B⁻¹ b``, or a warm
start that pivoted on.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.lp.simplex import PreparedProgram, SimplexResult

TOL = 1e-7


def certify(program: PreparedProgram, rhs, upper, result: SimplexResult, *, highs: bool = False) -> None:
    """Raise AssertionError unless ``result`` is an optimal answer to the packing LP."""
    assert result.success and result.basis is not None, result.status
    c, a = program._cost, program._a_ub
    assert program._a_eq.shape[0] == 0 and not program._shift.any(), "packing LPs only"
    n, bounded = c.shape[0], list(program.bounded)
    b = np.concatenate([np.asarray(rhs, dtype=float), np.asarray(upper, dtype=float)])
    m = b.shape[0]
    standard = np.hstack([np.vstack([a, np.eye(n)[bounded]]), np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])

    # -- the answer itself: rows, bounds, objective -------------------------
    x = result.x
    assert (x >= -TOL).all(), f"negative variable {x.min()}"
    assert (standard[:, :n] @ x <= b + TOL).all(), "a row or bound is violated"
    assert result.objective == float(c @ x)

    # -- its basis: primal feasible + dual feasible => optimal ---------------
    basis = list(result.basis)
    assert len(basis) == m and len(set(basis)) == m
    b_matrix = standard[:, basis]
    basic = np.linalg.solve(b_matrix, b)
    assert (basic >= -TOL).all(), f"basis is primal infeasible: {basic.min()}"
    vertex = np.zeros(n + m)
    vertex[basis] = basic
    assert np.abs(vertex[:n] - x).max() <= TOL, "x is not the basis' vertex"
    duals = np.linalg.solve(b_matrix.T, cost[basis])
    reduced = cost - standard.T @ duals
    assert (reduced >= -TOL).all(), f"basis is dual infeasible: {reduced.min()}"

    if highs:
        reference = linprog(c, A_ub=standard[:, :n], b_ub=b, bounds=(0.0, None), method="highs")
        assert reference.status == 0
        assert abs(reference.fun - result.objective) <= 1e-6 * max(1.0, abs(reference.fun))


@contextmanager
def every_solve_certified() -> Iterator[Counter[tuple[bool, bool]]]:
    """Certify each ``PreparedProgram.solve`` inside the block, every 20th against HiGHS too.

    Yields the running count of certified solves by (warm_started, pivoted).
    """
    kinds: Counter[tuple[bool, bool]] = Counter()
    real_solve = PreparedProgram.solve

    def certifying_solve(program, b_ub=None, b_eq=None, upper=(), max_iter=20000, initial_bases=()):
        result = real_solve(program, b_ub, b_eq, upper, max_iter, initial_bases)
        certify(program, b_ub, upper, result, highs=sum(kinds.values()) % 20 == 0)
        kinds[(result.warm_started, result.iterations > 0)] += 1
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PreparedProgram, "solve", certifying_solve)
        yield kinds
