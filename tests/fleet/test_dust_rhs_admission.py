"""Regression: a join that meets a full PoP must not be refused its rate.

With 1 Gbps VNFs a join that exactly fills a PoP's live VNFs leaves
that PoP a slack of a few 1e-12 Mbps (or exactly 0).  Driven through
the two-phase simplex, session 539 of this churn came back "optimal" at
λ = 0 after 388 pivots — some on 1.4e-9 pivot elements that Bland's
tie-break picked among the tableau's many degenerate rows — and was
``REJECTED_CAPACITY`` ("residual capacity carries 0.000/5.000 Mbps")
while HiGHS carries the full rate on the same matrices.  From the slack
basis the same program took 31 pivots and landed on HiGHS's vertex.
Since Dantzig pricing replaced Bland's rule the slack start takes 17
pivots and the two-phase path 89–106, on HiGHS's λ every time (the last
test below forces it 30 ways).
The churn is the benchmark's ``plane-churn-failover`` recipe at seed
105 with the fleet benchmark's 1 Gbps PoPs; the benchmark itself
side-steps the case with 10 Gbps ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.fleet import planner
from repro.lp.simplex import PreparedProgram, solve_simplex
from tests.fleet.churn_recipe import drive_churn_recipe

SEED = 105
CHUNKS = 8
WITNESS = 539  # the join the two-phase path used to reject


@pytest.fixture(scope="module")
def churned_plane():
    """Eight churn chunks, one primary crashed per chunk; records the witness LP."""
    witness: dict[str, object] = {}
    last_rhs: dict[str, object] = {}
    real_simplex = PreparedProgram.solve
    real_solve = planner.SessionLP.solve

    def recording_simplex(program, b_ub=None, b_eq=None, upper=(), max_iter=20000, initial_bases=()):
        last_rhs.update(b_ub=b_ub, upper=upper)
        return real_simplex(program, b_ub, b_eq, upper, max_iter, initial_bases)

    def recording_solve(lp, index, bases=()):
        outcome = real_solve(lp, index, bases)
        if lp.spec.session_id == WITNESS:
            # The program as the solver holds it: bounds are rows of the standard form.
            program = lp.shape.program
            rows = len(last_rhs["b_ub"]) + len(last_rhs["upper"])
            witness.update(
                c=np.array(lp.shape.c),
                a_ub=program._standard_form(np.zeros(rows, dtype=bool))[:, : len(lp.shape.c)],
                b_ub=np.concatenate([last_rhs["b_ub"], last_rhs["upper"]]),
                bounds=(0.0, None),
            )
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PreparedProgram, "solve", recording_simplex)
        patch.setattr(planner.SessionLP, "solve", recording_solve)
        run = drive_churn_recipe(SEED, CHUNKS, vnf_gbps=1.0)
    return run.plane, run.joins, witness


def test_every_join_is_admitted(churned_plane):
    plane, joins, _ = churned_plane
    assert joins == 810 and len(plane.verdicts) == joins
    refused = [(v.session_id, v.status.name, v.reason) for v in plane.verdicts if not v.admitted]
    assert refused == []


def test_highs_carries_the_witness_rate_on_the_same_matrices(churned_plane):
    plane, _, witness = churned_plane
    verdict = next(v for v in plane.verdicts if v.session_id == WITNESS)
    assert verdict.admitted
    highs = linprog(
        witness["c"], A_ub=witness["a_ub"], b_ub=witness["b_ub"], bounds=witness["bounds"], method="highs"
    )
    assert highs.status == 0
    assert highs.x[0] == pytest.approx(verdict.requested_mbps, abs=1e-9)
    assert verdict.lambda_mbps == pytest.approx(highs.x[0], abs=1e-9)
    assert np.all(np.asarray(witness["b_ub"]) >= 0.0)  # a packing LP: the slack start applies


def _two_phase_variants(witness):
    """The witness program forced off the slack start, 30 ways.

    Each of its zero rhs entries set to −6e-12 (the dust a full PoP
    leaves), and once exact with a redundant ``0·x = 0`` equality row.
    """
    c, a, b = witness["c"], witness["a_ub"], np.asarray(witness["b_ub"])
    zeros = np.flatnonzero(b == 0.0)
    assert zeros.size == 29
    for i in zeros:
        dusty = b.copy()
        dusty[i] = -6e-12
        yield f"b[{i}] = -6e-12", dict(c=c, a_ub=a, b_ub=dusty)
    yield "0·x = 0", dict(c=c, a_ub=a, b_ub=b, a_eq=np.zeros((1, len(c))), b_eq=np.zeros(1))


def test_the_two_phase_path_carries_the_witness_rate(churned_plane):
    # Bland's rule took 388–391 pivots here and stopped at λ = 0 on 9 of the
    # 30 variants; HiGHS carries 5 Mbps on every one.
    _, _, witness = churned_plane
    wrong = []
    for name, program in _two_phase_variants(witness):
        highs = linprog(
            program["c"],
            A_ub=program["a_ub"],
            b_ub=program["b_ub"],
            A_eq=program.get("a_eq"),
            b_eq=program.get("b_eq"),
            bounds=(0.0, None),
            method="highs",
        )
        assert highs.status == 0 and highs.x[0] == pytest.approx(5.0, abs=1e-9)
        ours = solve_simplex(**program)
        assert ours.success, (name, ours.status)
        if abs(ours.x[0] - highs.x[0]) > 1e-9:
            wrong.append((name, float(ours.x[0]), ours.iterations))
    assert wrong == []
