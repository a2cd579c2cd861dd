"""Every admission's LP answer carries an optimality certificate.

ROADMAP "System-wide invariants" (b), first slice: each solve the fleet
makes — cold from the slack basis, answered from a remembered basis with
one ``B⁻¹ b``, or warm-started and pivoted on — is checked by
:func:`tests.lp.certificate.certify`, which shares nothing with the
solver's caches, and every 20th one against HiGHS.  The sweeps are the
fleet soak's seeds 0–19 (tight quotas: dust right-hand sides, typed
rejections) and the benchmark's churn recipe with its eight takeovers.

The two-phase witness of DESIGN §13 (seed 105 / session 539's matrices)
is not reached from the slack start and stays owned by ROADMAP (b).
"""

from __future__ import annotations

from repro.fleet.soak import run_fleet_soak
from tests.lp.certificate import every_solve_certified


def test_fleet_soak_solves_are_certified():
    with every_solve_certified() as certified:
        solves = sum(run_fleet_soak(seed).lp_solves for seed in range(20))
    assert sum(certified.values()) == solves > 500
    assert certified[(False, True)] and certified[(True, False)], "cold and remembered-basis answers both occur"


def test_churn_recipe_solves_are_certified_across_takeovers(churned_seed_11):
    certified = churned_seed_11.certified
    assert churned_seed_11.run.plane.takeovers() == 8
    assert sum(certified.values()) == churned_seed_11.run.joins == 769
    assert certified[(True, False)] > certified[(False, True)] // 2
