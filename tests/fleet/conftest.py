"""Fleet fixtures: the benchmark's churn recipe, driven once for every test that pins it."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.fleet.manager import FleetManager
from repro.lp.simplex import SimplexResult
from tests.fleet.churn_recipe import ChurnedPlane, drive_churn_recipe
from tests.lp.certificate import every_solve_certified


@dataclass
class RecordedSolve:
    manager: FleetManager
    #: The plane's memory already held a basis for this LP's signature.
    known_signature: bool
    result: SimplexResult


@dataclass
class RecordedRun:
    run: ChurnedPlane
    solves: list[RecordedSolve]
    #: Certified solves by (warm_started, pivoted); see tests.lp.certificate.
    certified: Counter[tuple[bool, bool]]


@pytest.fixture(scope="session")
def churned_seed_11() -> RecordedRun:
    """Seed 11, eight chunks, eight takeovers; every solve certified and recorded."""
    solves: list[RecordedSolve] = []
    real_solve = FleetManager._solve

    def recording_solve(manager, lp):
        known = bool(manager.basis_memory.get(lp.signature))
        result, plan = real_solve(manager, lp)
        solves.append(RecordedSolve(manager, known, result))
        return result, plan

    with pytest.MonkeyPatch.context() as patch, every_solve_certified() as certified:
        patch.setattr(FleetManager, "_solve", recording_solve)
        return RecordedRun(drive_churn_recipe(11, 8), solves, certified)
