"""The rank tie-break does not make every session LP's optimum unique.

Witness: fleet-soak seed 78, session 1 (Seattle → Kansas City + Chicago,
20 Mbps), the first join of that trace.  Two vertices carry λ = 20 at the
same cost.  Bland's rule routes ``rcv1.0`` 17.5 Mbps via Chicago and 2.5
via Denver, and ``rcv1.1`` 19.72 via Chicago and 0.28 via Denver; Dantzig
pricing finds the mirror image.  The two relays trade loads, so λ, Σg
and Σy stay, and the swap balances Σ 1e-5·(rank + 1)·f between the two
receivers' path ranks, so the objective cannot tell the two apart.  Both
are optimal; which one a join gets depends on the pivot rule, not on the
program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import FleetManager
from repro.fleet.soak import ARRIVAL_RATE_PER_S, MEAN_HOLDING_S, soak_datacenters
from repro.lp import simplex
from repro.lp.simplex import PreparedProgram
from tests.lp.certificate import certify

SEED = 78


@pytest.fixture(scope="module")
def first_join():
    """Session 1 of the seed-78 soak trace, admitted; its program and patched rhs."""
    trace = ChurnTrace.generate(
        SEED,
        duration_s=40.0,
        arrival_rate_per_s=ARRIVAL_RATE_PER_S,
        mean_holding_s=MEAN_HOLDING_S,
        delay_choices_ms=(16.0, 80.0),
    )
    spec = next(event.spec for event in trace.events if event.kind == JOIN)
    manager = FleetManager(soak_datacenters(5))
    seen: dict[str, object] = {}
    real_solve = PreparedProgram.solve

    def recording_solve(program, b_ub=None, b_eq=None, upper=(), max_iter=20000, initial_bases=()):
        seen.update(program=program, rhs=np.array(b_ub), upper=list(upper))
        return real_solve(program, b_ub, b_eq, upper, max_iter, initial_bases)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PreparedProgram, "solve", recording_solve)
        verdict = manager.admit(spec)
    assert spec.session_id == 1 and verdict.admitted
    return manager._lps[spec.session_id], seen


def _routing(lp, x) -> dict[tuple[str, str], float]:
    return {(recv, path.nodes[2]): round(rate, 2) for recv, path, rate in lp._extract(x).path_rates}


def test_two_routings_certify_optimal_at_equal_cost(first_join):
    lp, seen = first_join
    program, rhs, upper = seen["program"], seen["rhs"], seen["upper"]
    dantzig = program.solve(rhs, upper=upper)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "DEGENERATE_RUN", 0)  # Bland's rule throughout
        bland = program.solve(rhs, upper=upper)
    for result in (dantzig, bland):
        certify(program, rhs, upper, result, highs=True)
        assert result.x[0] == pytest.approx(20.0, abs=1e-9)
    assert abs(dantzig.objective - bland.objective) <= 1e-12
    assert _routing(lp, bland.x) == {
        ("rcv1.0", "Chicago"): 17.5,
        ("rcv1.0", "Denver"): 2.5,
        ("rcv1.1", "Chicago"): 19.72,
        ("rcv1.1", "Denver"): 0.28,
    }
    assert _routing(lp, dantzig.x) == {
        ("rcv1.0", "Chicago"): 0.28,
        ("rcv1.0", "Denver"): 19.72,
        ("rcv1.1", "Chicago"): 2.5,
        ("rcv1.1", "Denver"): 17.5,
    }
