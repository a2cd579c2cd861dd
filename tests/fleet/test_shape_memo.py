"""Bit-identity of the shape memo and the ``B⁻¹b`` restart.

``PINNED`` was recorded at the parent commit, before ``src/`` was
touched: one SHA-256 over a 3-shard plane under the benchmark's
``plane-churn-failover`` recipe (seed 11, 8 chunks, one primary crash
per chunk) — every verdict, every solve's pivot count and basis, every
PoP's forwarding table.  Compiling an LP shape once and re-solving a
known basis with one ``B⁻¹ b`` may change what a join *costs*, never
what it *answers*.

Two references back the digest.  ``_reference_lp`` is the by-name,
per-session matrix build the planner used before shapes existed; it
lives only here, and every ``SessionLP`` — memo hit, memo miss or the
cold oracle's fresh compile — must hand back its arrays, row maps and
``signature``.  The one-shot ``solve_simplex`` (a throw-away prepared
program, so always the full warm path) is the reference for a prepared
program's remembered bases.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.fleet import planner
from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import COLD, FleetManager, fleet_of
from repro.fleet.soak import SOAK_DC_CITIES, soak_datacenters
from repro.lp import simplex
from repro.lp.simplex import PreparedProgram, solve_simplex
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane
from tests.lp.test_simplex_equivalence import _packing_lp

SEED = 11
CHUNKS = 8
CHUNK_SIM_S = 20.0
PINNED = "574f2c37a8c7a619b1a36740bbf4873547eba87d6057dc2ca595fbb6df3a50f2"


def churned_plane_digest(monkeypatch: pytest.MonkeyPatch) -> tuple[str, int, int]:
    """The benchmark's churn recipe; (digest, joins, warm solves)."""
    solves: list[tuple[int, tuple[int, ...] | None]] = []
    real_solve = FleetManager._solve

    def recording_solve(manager, lp):
        result, plan = real_solve(manager, lp)
        solves.append((result.iterations, result.basis))
        return result, plan

    monkeypatch.setattr(FleetManager, "_solve", recording_solve)
    scheduler = EventScheduler()
    plane = ShardedControlPlane(
        3,
        fleet_of(SOAK_DC_CITIES[:8], inbound_mbps=10_000.0, outbound_mbps=10_000.0, coding_mbps=9_000.0),
        scheduler,
        manager_kwargs={"backbone_mbps": 100_000.0},
    )
    shard_ids = sorted(plane.shards)
    down = {}

    def crash(shard_id: str) -> None:
        shard = plane.shards[shard_id]
        down[shard_id] = next(r for r in shard.replicas if r.name == shard.lease.holder)
        down[shard_id].crash()

    joins = 0
    tables: list[tuple[int, str, str, str]] = []
    for chunk in range(CHUNKS):
        base = chunk * CHUNK_SIM_S
        trace = ChurnTrace.generate(
            SEED * 100_000 + chunk,
            duration_s=CHUNK_SIM_S,
            arrival_rate_per_s=5.0,
            mean_holding_s=40.0,
            delay_choices_ms=(100.0, 150.0),
            start_id=joins + 1,
        )
        for event in trace.events:
            if event.kind == JOIN:
                scheduler.schedule_at(base + event.time_s, plane.submit, event.spec)
                joins += 1
            else:
                scheduler.schedule_at(base + event.time_s, plane.depart, event.session_id)
        shard_id = shard_ids[chunk % len(shard_ids)]
        scheduler.schedule_at(base + 5.0, crash, shard_id)
        scheduler.schedule_at(base + 15.0, lambda s=shard_id: down.pop(s).restore())
        scheduler.run(until=base + CHUNK_SIM_S)
        for sid in shard_ids:
            for dc, text in plane.shards[sid].manager.forwarding_tables().items():
                tables.append((chunk, sid, dc, text))
    plane.stop()

    digest = hashlib.sha256()
    for v in plane.verdicts:
        digest.update(
            repr(
                (v.session_id, v.status.value, repr(v.lambda_mbps), v.warm_started, v.vnfs_launched, v.epoch)
            ).encode()
        )
    digest.update(repr(solves).encode())
    digest.update(repr(tables).encode())
    warm = sum(1 for v in plane.verdicts if v.warm_started)
    return digest.hexdigest(), joins, warm


def test_churned_plane_is_bit_identical_to_the_parent(monkeypatch):
    digest, joins, warm = churned_plane_digest(monkeypatch)
    assert (joins, warm) == (769, 292)
    assert digest == PINNED


# -- the by-name reference build (the pre-shape SessionLP) ---------------------


def _reference_lp(spec, path_sets, manager):
    """(a, c, static rhs, shared/dc-in/dc-out rows by name, signature), built per session."""
    dc_names, shared_edges, caps = frozenset(manager.datacenters), manager.shared_edges, manager.datacenters
    receivers = tuple(sorted(path_sets))
    paths = {recv: tuple(path_sets[recv]) for recv in receivers}
    edges = sorted({edge for group in paths.values() for p in group for edge in p.edges})
    touched = tuple(sorted({n for edge in edges for n in edge if n in dc_names}))
    path_col, col = {}, 1
    for recv in receivers:
        for path in paths[recv]:
            path_col[(recv, path)] = col
            col += 1
    edge_col = {}
    for edge in edges:
        edge_col[edge] = col
        col += 1
    y_col = {}
    for dc in touched:
        y_col[dc] = col
        col += 1
    n = col
    on_edge = []
    for recv in receivers:
        path_cols = {}
        for path in paths[recv]:
            for edge in path.edges:
                path_cols.setdefault(edge, []).append(path_col[(recv, path)])
        on_edge.append(path_cols)
    out_of, into = {}, {}
    for edge, j in edge_col.items():
        out_of.setdefault(edge[0], []).append(j)
        into.setdefault(edge[1], []).append(j)
    most_rows = 2 * len(receivers) + sum(map(len, on_edge)) + len(edges) + 1 + 2 * len(touched)
    a, rhs, row = np.zeros((most_rows, n)), np.zeros(most_rows), 0
    for recv in receivers:
        a[row, 0] = 1.0
        a[row, [path_col[(recv, path)] for path in paths[recv]]] = -1.0
        row += 1
    for path_cols in on_edge:
        for edge in sorted(path_cols):
            a[row, path_cols[edge]] = 1.0
            a[row, edge_col[edge]] = -1.0
            row += 1
    shared_rows = []
    for edge in edges:
        a[row, edge_col[edge]] = 1.0
        if edge in shared_edges:
            shared_rows.append((row, edge))
        else:
            rhs[row] = manager.access_mbps
        row += 1
    aggregates = [(out_of.get(spec.source_host()), manager.source_out_mbps)]
    aggregates += [(into.get(recv), manager.receiver_in_mbps) for recv in receivers]
    for cols, cap in aggregates:
        if cols:
            a[row, cols] = 1.0
            rhs[row] = cap
            row += 1
    dc_in_rows, dc_out_rows = [], []
    for dc in touched:
        for cols, dc_rows in ((into.get(dc), dc_in_rows), (out_of.get(dc), dc_out_rows)):
            if cols:
                a[row, cols] = 1.0
                dc_rows.append((row, dc))
                row += 1
    a, rhs = a[:row], rhs[:row]
    c = np.zeros(n)
    c[0] = -1.0
    for j in edge_col.values():
        c[j] = 1e-6
    for j in y_col.values():
        c[j] += manager.alpha
    for rank, j in enumerate(sorted(path_col.values())):
        c[j] += 1e-5 * (rank + 1)
    # bind(): per-VNF capacities into the matrix, λ's weight against them.
    for r, dc in dc_in_rows:
        a[r, y_col[dc]] = -caps[dc].in_cap_mbps
    for r, dc in dc_out_rows:
        a[r, y_col[dc]] = -caps[dc].outbound_mbps
    copies = float(len(receivers))
    worst_vnf_cost = copies * sum(1.0 / caps[dc].in_cap_mbps + 1.0 / caps[dc].outbound_mbps for dc in touched)
    edge_budget = 1e-5 * copies * len(edges)
    tie_budget = 1e-4 * copies * (len(path_col) + 1)
    c[0] = -(1.0 + manager.alpha * worst_vnf_cost + edge_budget + tie_budget)
    digest = hashlib.sha256()
    digest.update(a.tobytes())
    digest.update(c.tobytes())
    digest.update(str(n).encode())
    return a, c, rhs, tuple(edges), touched, shared_rows, dc_in_rows, dc_out_rows, digest.hexdigest()


def _assert_matches_reference(lp: planner.SessionLP, reference) -> None:
    a, c, rhs, edges, touched, shared_rows, dc_in_rows, dc_out_rows, signature = reference
    shape = lp.shape
    n, bounds = len(c), len(shape.program.bounded)
    standard = shape.program._standard_form(np.zeros(len(rhs) + bounds, dtype=bool))
    assert np.array_equal(standard[: len(rhs), :n], a)
    # The bound rows (λ ≤ rate, y ≤ headroom) and the slack identity complete the standard form.
    assert shape.program.bounded == (0, *range(n - len(touched), n))
    assert np.array_equal(standard[len(rhs) :, :n], np.eye(n)[list(shape.program.bounded)])
    assert np.array_equal(standard[:, n:], np.eye(len(rhs) + bounds))
    assert np.array_equal(shape.c, c) and np.array_equal(shape.static_rhs, rhs)
    assert (lp.edges, lp.touched_dcs, lp.signature) == (edges, touched, signature)
    assert [(row, lp.edges[i]) for row, i in shape.shared_rows] == shared_rows
    assert [(row, lp.touched_dcs[i]) for row, i in shape.dc_in_rows] == dc_in_rows
    assert [(row, lp.touched_dcs[i]) for row, i in shape.dc_out_rows] == dc_out_rows


def test_every_session_lp_equals_the_by_name_build(monkeypatch):
    """≥ 500 random specs on the soak cities: hit, miss and cold compile alike."""
    monkeypatch.setattr(planner, "_shapes", {})
    built: list[planner.ShapeKey] = []
    real_compile = planner.compile_shape
    monkeypatch.setattr(planner, "compile_shape", lambda key: built.append(key) or real_compile(key))
    warm = FleetManager(soak_datacenters(8), backbone_mbps=100_000.0)
    cold = FleetManager(soak_datacenters(8), backbone_mbps=100_000.0, mode=COLD)
    specs = [
        event.spec
        for seed in (1, 2, 3)
        for event in ChurnTrace.generate(seed, duration_s=40.0, arrival_rate_per_s=5.0).joins
    ]
    checked = 0
    for spec in specs:
        path_sets = warm._candidate_paths(spec)
        if any(not paths for paths in path_sets.values()):
            continue  # no route within the delay bound: no LP is built
        reference = _reference_lp(spec, path_sets, warm)
        before = len(built)
        _assert_matches_reference(warm._new_lp(spec, path_sets), reference)
        hit = len(built) == before
        _assert_matches_reference(cold._new_lp(spec, path_sets), reference)
        assert len(built) == before + (1 if hit else 2), "the cold oracle never reads the memo"
        checked += 1
    assert checked >= 500
    hits = checked - len(planner._shapes)
    assert hits > checked // 4, f"only {hits} memo hits in {checked} specs"
    shape = next(iter(planner._shapes.values()))
    assert not shape.c.flags.writeable and not shape.static_rhs.flags.writeable, "shared, never written"


# -- B⁻¹b restart ≡ the full warm path -------------------------------------------


def test_remembered_basis_restart_equals_the_full_warm_path(monkeypatch, rng):
    pivot_loops: list[int] = []
    real_loop = simplex._pivot_loop

    def counting_loop(tableau, basis, max_iter):
        pivot_loops.append(1)
        return real_loop(tableau, basis, max_iter)

    monkeypatch.setattr(simplex, "_pivot_loop", counting_loop)
    restarts = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 17))
        c, a, b, bounds = _packing_lp(int(rng.integers(0, 2**31)), n, m)
        bounded = [j for j, (_, hi) in enumerate(bounds) if hi is not None]
        upper = [bounds[j][1] for j in bounded]
        program = PreparedProgram(c, a, bounded=bounded)
        cold = program.solve(b, upper=upper)
        assert cold.basis is not None
        for factor in (1.0, 1.03, 0.6, 2.5, 1.0):
            full = solve_simplex(c, a_ub=a, b_ub=b * factor, bounds=bounds, initial_basis=cold.basis)
            loops_before = len(pivot_loops)
            fast = program.solve(b * factor, upper=upper, initial_basis=cold.basis)
            if factor != 1.0 and fast.warm_started:
                assert len(pivot_loops) == loops_before, "a settled basis needs no tableau"
                restarts += 1
            assert (fast.status, fast.iterations, fast.basis, fast.warm_started) == (
                full.status, full.iterations, full.basis, full.warm_started
            )
            assert fast.x.tobytes() == full.x.tobytes()
            assert repr(fast.objective) == repr(full.objective)
    assert restarts > 300
