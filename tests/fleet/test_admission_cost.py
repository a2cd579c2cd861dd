"""An exact, stopwatch-free guard on what one admission costs.

A ``SessionLP`` is a packing LP — only ≤ rows, no negative right-hand
side — so its slack columns are a feasible basis and the solve needs no
phase 1.  Pivot counts repeat exactly from run to run, so the
regression "phase 1 came back" (≈ 79 pivots per admit on this fleet,
against ≈ 15) fails here without a timing gate.
"""

from __future__ import annotations

from repro.fleet import planner
from repro.fleet.churn import ChurnTrace
from repro.fleet.manager import fleet_of
from repro.fleet.soak import SOAK_DC_CITIES
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane

SESSIONS = 200
PIVOTS_PER_ADMIT = 20


def test_pivots_per_admission_stay_within_budget(monkeypatch):
    results = []
    real = planner.solve_simplex

    def counting(c, **kwargs):
        results.append(real(c, **kwargs))
        return results[-1]

    monkeypatch.setattr(planner, "solve_simplex", counting)
    scheduler = EventScheduler()
    plane = ShardedControlPlane(
        3, fleet_of(SOAK_DC_CITIES[:8]), scheduler, manager_kwargs={"backbone_mbps": 100_000.0}
    )
    trace = ChurnTrace.generate(
        7, duration_s=60.0, arrival_rate_per_s=5.0, mean_holding_s=40.0, delay_choices_ms=(100.0, 150.0)
    )
    for event in trace.joins[:SESSIONS]:
        plane.submit(event.spec)
    scheduler.run(until=5.0)
    plane.stop()

    assert len(plane.verdicts) == SESSIONS and all(v.admitted for v in plane.verdicts)
    assert len(results) == SESSIONS, "one LP solve per admission"
    assert all(r.basis is not None for r in results), "every solve must seed a warm start"
    pivots = sum(r.iterations for r in results)
    assert pivots <= PIVOTS_PER_ADMIT * SESSIONS, f"{pivots / SESSIONS:.1f} pivots per admit"
