"""Bit-identity of the shape memo and the ``B⁻¹b`` restart.

``PINNED_DECISIONS`` was recorded at the parent commit, before ``src/``
was touched: one SHA-256 over a 3-shard plane under the benchmark's
``plane-churn-failover`` recipe (seed 11, 8 chunks, one primary crash
per chunk; the ``churned_seed_11`` fixture) — every verdict with λ on the fingerprint grid, every PoP's
forwarding table after every chunk, every index, retry and takeover.
Compiling an LP shape once and answering from a remembered basis with
one ``B⁻¹ b`` may change what a join *costs* — which solves are warm, how
many pivots — and that may only improve; never what it *answers*.

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

from repro.fleet import planner
from repro.fleet.churn import ChurnTrace
from repro.fleet.manager import COLD, FleetManager
from repro.fleet.soak import soak_datacenters
from repro.lp import simplex
from repro.lp.simplex import PreparedProgram, solve_simplex
from tests.lp.test_simplex_equivalence import _packing_lp

#: Recorded at the parent commit, before ``src/`` was touched (see
#: :meth:`tests.fleet.churn_recipe.ChurnedPlane.decision_digest`).
PINNED_DECISIONS = "e25ae117b3896bdf91609c81c15e490edd2d9114a6db5d4f985bb545e5f123b6"
#: What the same recipe cost at the parent: one basis per signature per
#: manager, lost at every takeover.
PARENT_WARM, PARENT_PIVOTS, JOINS = 292, 9_903, 769


def test_churned_plane_is_bit_identical_to_the_parent(churned_seed_11):
    assert churned_seed_11.run.joins == JOINS
    assert churned_seed_11.run.decision_digest() == PINNED_DECISIONS


def test_remembered_bases_only_make_a_join_cheaper(churned_seed_11):
    results = [solve.result for solve in churned_seed_11.solves]
    assert len(results) == JOINS, "one LP solve per join"
    assert sum(1 for v in churned_seed_11.run.plane.verdicts if v.warm_started) >= PARENT_WARM
    assert sum(result.iterations for result in results) <= PARENT_PIVOTS


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
            fast = program.solve(b * factor, upper=upper, initial_bases=[cold.basis])
            if factor != 1.0 and fast.warm_started:
                assert len(pivot_loops) == loops_before, "a settled basis needs no tableau"
                restarts += 1
            assert (fast.status, fast.iterations, fast.basis, fast.warm_started) == (
                full.status, full.iterations, full.basis, full.warm_started
            )
            assert fast.x.tobytes() == full.x.tobytes()
            assert repr(fast.objective) == repr(full.objective)
    assert restarts > 300
