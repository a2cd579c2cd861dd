"""An exact, stopwatch-free guard on what one admission costs.

A ``SessionLP`` is a packing LP — only ≤ rows, no negative right-hand
side — so its slack columns are a feasible basis and the solve needs no
phase 1.  Pivot counts repeat exactly from run to run, so the
regression "phase 1 came back" (≈ 79 pivots per admit on this fleet,
against ≈ 15) fails here without a timing gate.  The same goes for what
is computed once and shared: a known shape is never rebuilt, a known
(shape, basis) pair is never inverted again, and after the first
``FleetManager()`` nobody runs an all-pairs Dijkstra over OS3E.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fleet import planner
from repro.fleet.churn import ChurnTrace
from repro.fleet.manager import FleetManager, fleet_of
from repro.fleet.soak import SOAK_DC_CITIES
from repro.lp.simplex import PreparedProgram, SimplexResult
from repro.net import topology
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane

SESSIONS = 200
PIVOTS_PER_ADMIT = 20


@dataclass
class Ledger:
    results: list[SimplexResult] = field(default_factory=list)
    shapes_asked: list[planner.ShapeKey] = field(default_factory=list)
    shapes_built: list[planner.ShapeKey] = field(default_factory=list)
    warm_attempts: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    inversions: int = 0
    dijkstra_runs: int = 0


def _admit_200(monkeypatch) -> tuple[ShardedControlPlane, Ledger]:
    """200 seeded joins through a 3-shard plane, every shared computation counted."""
    ledger = Ledger()
    real_solve, real_known, real_compile = PreparedProgram.solve, planner.known_shape, planner.compile_shape
    real_inv, real_dijkstra = np.linalg.inv, topology.nx.all_pairs_dijkstra_path_length

    def counting_solve(program, b_ub=None, b_eq=None, upper=(), max_iter=20000, initial_bases=()):
        ledger.warm_attempts += [(id(program), basis) for basis in initial_bases]
        ledger.results.append(real_solve(program, b_ub, b_eq, upper, max_iter, initial_bases))
        return ledger.results[-1]

    def counting_known(key):
        ledger.shapes_asked.append(key)
        return real_known(key)

    def counting_compile(key):
        ledger.shapes_built.append(key)
        return real_compile(key)

    def counting_inv(matrix):
        ledger.inversions += 1
        return real_inv(matrix)

    def counting_dijkstra(*args, **kwargs):
        ledger.dijkstra_runs += 1
        return real_dijkstra(*args, **kwargs)

    datacenters = fleet_of(SOAK_DC_CITIES[:8])
    FleetManager(datacenters)  # the process's first manager pays for the OS3E latency map
    with monkeypatch.context() as patch:
        patch.setattr(PreparedProgram, "solve", counting_solve)
        patch.setattr(planner, "known_shape", counting_known)
        patch.setattr(planner, "compile_shape", counting_compile)
        patch.setattr(planner, "_shapes", {})  # what earlier tests compiled does not count here
        patch.setattr(np.linalg, "inv", counting_inv)
        patch.setattr(topology.nx, "all_pairs_dijkstra_path_length", counting_dijkstra)
        scheduler = EventScheduler()
        plane = ShardedControlPlane(3, datacenters, scheduler, manager_kwargs={"backbone_mbps": 100_000.0})
        trace = ChurnTrace.generate(
            7, duration_s=60.0, arrival_rate_per_s=5.0, mean_holding_s=40.0, delay_choices_ms=(100.0, 150.0)
        )
        for event in trace.joins[:SESSIONS]:
            plane.submit(event.spec)
        scheduler.run(until=5.0)
        plane.stop()
    return plane, ledger


def test_pivots_per_admission_stay_within_budget(monkeypatch):
    plane, ledger = _admit_200(monkeypatch)
    results = ledger.results

    assert len(plane.verdicts) == SESSIONS and all(v.admitted for v in plane.verdicts)
    assert len(results) == SESSIONS, "one LP solve per admission"
    assert all(r.basis is not None for r in results), "every solve must seed a warm start"
    pivots = sum(r.iterations for r in results)
    assert pivots <= PIVOTS_PER_ADMIT * SESSIONS, f"{pivots / SESSIONS:.1f} pivots per admit"


def test_what_is_pure_is_computed_once(monkeypatch):
    _, ledger = _admit_200(monkeypatch)

    assert len(ledger.shapes_asked) == SESSIONS
    distinct = set(ledger.shapes_asked)
    assert len(distinct) < SESSIONS, "the trace must repeat shapes for this guard to mean anything"
    assert len(ledger.shapes_built) == len(distinct), "a known shape is never rebuilt"
    assert set(ledger.shapes_built) == distinct
    pairs = set(ledger.warm_attempts)
    assert 0 < len(pairs) < len(ledger.warm_attempts), "the trace must repeat (shape, basis) pairs too"
    assert ledger.inversions <= len(pairs), "a known (shape, basis) pair is never inverted again"
    assert ledger.dijkstra_runs == 0, "OS3E latencies are computed once per process"


def test_eviction_only_costs_a_rebuild(monkeypatch):
    unbounded, _ = _admit_200(monkeypatch)
    monkeypatch.setattr(planner, "SHAPE_MEMO_SIZE", 2)
    bounded, ledger = _admit_200(monkeypatch)

    assert len(ledger.shapes_built) > len(set(ledger.shapes_asked)), "a bound of 2 must evict"
    assert bounded.verdicts == unbounded.verdicts
    assert bounded.canonical() == unbounded.canonical()
