"""Per-session delta LP: admit one session against residual capacity.

Instead of re-solving problem (2) over the whole fleet on every join,
the fleet layer solves a *session-local* program whose only coupling to
the rest of the fleet is through the surplus index: shared-edge rows
are bounded by residual capacity, per-DC rows by the slack of live
VNFs plus however many more the quota allows.

What such a program depends on splits in two.  Its *shape* — matrix,
objective, static rhs, which rows get patched — is a pure function of
the session's geometry with the names erased (:data:`ShapeKey`), so it
is compiled once (:func:`compile_shape`), kept in a bounded memo
(:func:`known_shape`) and shared by every session, manager and shard
that meets the same shape, together with its prepared simplex program
(:class:`repro.lp.simplex.PreparedProgram`).  A :class:`SessionLP` keeps
only the names; every solve patches the rhs and bounds from the index,
and the bases remembered for its ``signature`` (:data:`BasisMemory`) are
offered to it first.

Variable order (fixed, so bases transfer between same-shape solves):
``[λ, f(receiver,path)…, g(edge)…, y(dc)…]`` with receivers, paths,
edges and DCs each in sorted order.  Rows, in order:

1. per receiver: λ − Σ_p f ≤ 0                      (2a)
2. per (receiver, edge): Σ_{p∋e} f − g_e ≤ 0        (2b)
3. per shared WAN edge: g_e ≤ residual(e)           [patched]
4. per private host edge: g_e ≤ access cap
5. source outbound: Σ g ≤ cap                       (2d')
6. per receiver inbound: Σ g ≤ cap                  (2c')
7. per DC: Σ_in g − in_cap·y ≤ slack_in             (2c/2e, patched)
   and Σ_out g − out_cap·y ≤ slack_out              (2d, patched)

Objective (minimize): −M·λ + α·Σy + 1e-6·Σg + per-path rank tie-break —
the tie-break separates most same-λ routings, so warm and cold solves
usually land on identical routings, not merely equal objectives; it is
linear in the rank, so two receivers that trade relays can still tie
(fleet-soak seed 78, session 1: two optimal vertices at equal cost, and
the pivot rule picks one).  M (sized against the touched DCs'
capacities) dominates every other term so α only ranks routings and can
never refuse a feasible session.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.fleet.capacity import RATE_EPS, Edge, FleetDataCenter, FleetPlan, SurplusIndex
from repro.lp.simplex import Basis, FloatArray, PreparedProgram, SimplexResult

# Re-exported: admissions used to call the one-shot solver under this
# module's name, and instrumentation that wraps it there still finds it.
from repro.lp.simplex import solve_simplex as solve_simplex
from repro.routing.paths import Path

if TYPE_CHECKING:
    from repro.fleet.churn import SessionSpec

#: Shapes :func:`known_shape` keeps; the least recently used one goes first.
#: An evicted shape only costs its next session a rebuild.
SHAPE_MEMO_SIZE = 1024

#: ``signature`` → the bases last found optimal for it, most recent first, at
#: most :data:`~repro.lp.simplex.KEPT_BASES` (what a prepared program keeps
#: inverses for; over 150 chunks of ``plane-churn-failover`` one reads 0.83
#: warm, two or more saturate at 0.87).  Reduced costs do not depend on the
#: rhs, so each stays dual-feasible and answers any rhs it is primal-feasible
#: for with one ``B⁻¹ b``.  Advisory — a wrong entry costs the solver a
#: fallback, never an answer — and owned by whoever owns the managers (a
#: plane shares one across shards and takeovers), never by the process: a
#: run must not see another run's bases.
BasisMemory = dict[str, list[Basis]]

RankPath = tuple[int, ...]
#: Everything the matrix, the objective and the rhs layout depend on, with
#: names erased — a node is its rank in the session's sorted node order:
#: (per sorted receiver its paths, source, receivers, (DC, in cap, out cap)
#: per touched DC, shared edges, (access, source out, receiver in, α)).
ShapeKey = tuple[
    tuple[tuple[RankPath, ...], ...],
    int,
    tuple[int, ...],
    tuple[tuple[int, float, float], ...],
    tuple[tuple[int, int], ...],
    tuple[float, float, float, float],
]


@dataclass(frozen=True)
class LPShape:
    """The name-free, rhs-free half of a session LP; shared, never written."""

    c: FloatArray
    static_rhs: FloatArray
    edges: tuple[tuple[int, int], ...]
    #: (row, index into ``edges``) of each residual-patched row, and
    #: (row, index into the touched DCs) of each slack-patched one.
    shared_rows: tuple[tuple[int, int], ...]
    dc_in_rows: tuple[tuple[int, int], ...]
    dc_out_rows: tuple[tuple[int, int], ...]
    #: Structure key: two LPs with equal signatures share warm bases.
    signature: str
    program: PreparedProgram


def compile_shape(key: ShapeKey) -> LPShape:
    """Build the matrix form of one shape from scratch (pure)."""
    paths, source, receivers, dc_caps, shared, (access_mbps, source_out_mbps, receiver_in_mbps, alpha) = key
    edges = sorted({edge for group in paths for path in group for edge in zip(path, path[1:])})
    shared_edges = frozenset(shared)

    # -- column layout: [λ, f(receiver, path)…, g(edge)…, y(dc)…] ------------
    n_paths = sum(len(group) for group in paths)
    edge_col = {edge: 1 + n_paths + i for i, edge in enumerate(edges)}
    y_col = 1 + n_paths + len(edges)
    n = y_col + len(dc_caps)

    # -- rows: written into one matrix preallocated at their upper bound --
    on_edge: list[dict[tuple[int, int], list[int]]] = []
    col = 1
    for group in paths:
        path_cols: dict[tuple[int, int], list[int]] = {}
        for path in group:
            for edge in zip(path, path[1:]):
                path_cols.setdefault(edge, []).append(col)
            col += 1
        on_edge.append(path_cols)
    out_of: dict[int, list[int]] = {}
    into: dict[int, list[int]] = {}
    for edge, j in edge_col.items():
        out_of.setdefault(edge[0], []).append(j)
        into.setdefault(edge[1], []).append(j)
    most_rows = (
        2 * len(paths) + sum(len(path_cols) for path_cols in on_edge) + len(edges) + 1 + 2 * len(dc_caps)
    )
    a = np.zeros((most_rows, n))
    rhs = np.zeros(most_rows)
    row = 0

    col = 1
    for group in paths:
        a[row, 0] = 1.0
        a[row, col : col + len(group)] = -1.0
        col += len(group)
        row += 1

    for path_cols in on_edge:
        for edge in sorted(path_cols):
            a[row, path_cols[edge]] = 1.0
            a[row, edge_col[edge]] = -1.0
            row += 1

    shared_rows: list[tuple[int, int]] = []
    for i, edge in enumerate(edges):
        a[row, edge_col[edge]] = 1.0
        if edge in shared_edges:
            shared_rows.append((row, i))  # rhs patched
        else:
            rhs[row] = access_mbps
        row += 1

    aggregates = [(out_of.get(source), source_out_mbps)]
    aggregates += [(into.get(recv), receiver_in_mbps) for recv in receivers]
    for cols, cap in aggregates:
        if cols:
            a[row, cols] = 1.0
            rhs[row] = cap
            row += 1

    # Per-DC rows: Σ g − cap·y ≤ slack, the slack patched per solve.
    dc_in_rows: list[tuple[int, int]] = []
    dc_out_rows: list[tuple[int, int]] = []
    for i, (dc, in_cap, out_cap) in enumerate(dc_caps):
        sides = ((into.get(dc), in_cap, dc_in_rows), (out_of.get(dc), out_cap, dc_out_rows))
        for cols, cap, dc_rows in sides:
            if cols:
                a[row, cols] = 1.0
                a[row, y_col + i] = -cap
                dc_rows.append((row, i))
                row += 1
    a, rhs = a[:row], rhs[:row]

    # Objective: carry the rate if at all feasible; the per-g penalty
    # prefers short routings and the per-path epsilon separates most
    # same-cost routings (not all: see the module docstring).
    c = np.zeros(n)
    c[1 + n_paths : y_col] = 1e-6
    c[y_col:] = alpha
    # The rank weight must clear the simplex pivot tolerance (1e-9)
    # by orders of magnitude, or warm and cold solves can stall on
    # different same-cost vertices of a degenerate optimum.
    for rank in range(n_paths):
        c[1 + rank] = 1e-5 * (rank + 1)
    # One Mbps of λ moves at most R Mbps (one copy per receiver)
    # through each touched DC, requiring at most R/cap VNFs there, so
    # this weight strictly dominates the worst-case marginal cost of
    # carrying traffic — feasibility always wins over VNF thrift and α
    # only ever *ranks* routings, it cannot refuse a feasible session.
    copies = float(len(paths))
    worst_vnf_cost = copies * sum(1.0 / in_cap + 1.0 / out_cap for _, in_cap, out_cap in dc_caps)
    # 10× safety margins over the per-edge penalty and the worst
    # per-path tie-break a unit of λ could possibly incur.
    edge_budget = 1e-5 * copies * len(edges)
    tie_budget = 1e-4 * copies * (n_paths + 1)
    c[0] = -(1.0 + alpha * worst_vnf_cost + edge_budget + tie_budget)

    digest = hashlib.sha256()
    digest.update(a.tobytes())
    digest.update(c.tobytes())
    digest.update(str(n).encode())
    for shared_array in (a, c, rhs):  # the prepared program keeps a and c by reference
        shared_array.setflags(write=False)
    return LPShape(
        c=c,
        static_rhs=rhs,
        edges=tuple(edges),
        shared_rows=tuple(shared_rows),
        dc_in_rows=tuple(dc_in_rows),
        dc_out_rows=tuple(dc_out_rows),
        signature=digest.hexdigest(),
        # λ ≤ the asked rate and y ≤ the VNF headroom: values arrive per solve.
        program=PreparedProgram(c, a, bounded=[0, *range(y_col, n)]),
    )


_shapes: dict[ShapeKey, LPShape] = {}


def known_shape(key: ShapeKey) -> LPShape:
    """:func:`compile_shape` behind a bounded memo (dict order is recency)."""
    shape = _shapes.pop(key, None)
    if shape is None:
        shape = compile_shape(key)
        while len(_shapes) >= SHAPE_MEMO_SIZE:
            del _shapes[next(iter(_shapes))]
    _shapes[key] = shape
    return shape


class SessionLP:
    """One session's delta LP: the names, over a shared :class:`LPShape`."""

    def __init__(
        self,
        spec: "SessionSpec",
        path_sets: Mapping[str, Sequence[Path]],
        shared_edges: frozenset[Edge],
        datacenters: Mapping[str, FleetDataCenter],
        *,
        access_mbps: float,
        source_out_mbps: float,
        receiver_in_mbps: float,
        alpha: float,
    ) -> None:
        self.spec = spec
        self.receivers: tuple[str, ...] = tuple(sorted(path_sets))
        self.paths: dict[str, tuple[Path, ...]] = {
            recv: tuple(path_sets[recv]) for recv in self.receivers
        }
        nodes = sorted({n for paths in self.paths.values() for p in paths for n in p.nodes})
        rank = {name: i for i, name in enumerate(nodes)}
        self.touched_dcs = touched = tuple(n for n in nodes if n in datacenters)
        ranks = rank.__getitem__
        key: ShapeKey = (
            tuple([tuple([tuple(map(ranks, p.nodes)) for p in self.paths[recv]]) for recv in self.receivers]),
            rank.get(spec.source_host(), -1),
            tuple(rank.get(recv, -1) for recv in self.receivers),
            tuple(
                (rank[dc], datacenters[dc].in_cap_mbps, datacenters[dc].outbound_mbps)
                for dc in touched
            ),
            # Shared edges join data centers: the touched ones, in rank order,
            # meet every shared edge the session can use, already sorted.
            tuple([(rank[a], rank[b]) for a in touched for b in touched if (a, b) in shared_edges]),
            (access_mbps, source_out_mbps, receiver_in_mbps, alpha),
        )
        self.shape = self._shape_of(key)
        self.edges: tuple[Edge, ...] = tuple((nodes[a], nodes[b]) for a, b in self.shape.edges)

    @staticmethod
    def _shape_of(key: ShapeKey) -> LPShape:
        return known_shape(key)

    @property
    def signature(self) -> str:
        """Structure key: two LPs with equal signatures share warm bases."""
        return self.shape.signature

    def solve(
        self,
        index: SurplusIndex,
        bases: Sequence[Basis] = (),
    ) -> tuple[SimplexResult, FleetPlan | None]:
        """Patch rhs/bounds from the index and solve, ``bases`` first; extract the plan."""
        shape = self.shape
        rhs = shape.static_rhs.copy()
        for row, i in shape.shared_rows:
            rhs[row] = index.residual(self.edges[i])
        for row, i in shape.dc_in_rows:
            rhs[row] = index.slack_in(self.touched_dcs[i])
        for row, i in shape.dc_out_rows:
            rhs[row] = index.slack_out(self.touched_dcs[i])
        upper = [self.spec.rate_mbps, *(float(index.vnf_headroom(dc)) for dc in self.touched_dcs)]
        result = shape.program.solve(rhs, upper=upper, initial_bases=bases)
        if not result.success:
            return result, None
        return result, self._extract(result.x)

    def _extract(self, x: FloatArray) -> FleetPlan:
        path_rates: list[tuple[str, Path, float]] = []
        col = 1  # column 0 is λ
        for recv in self.receivers:
            for path in self.paths[recv]:
                rate = float(x[col])
                col += 1
                if rate > RATE_EPS:
                    path_rates.append((recv, path, rate))
        # Only edges a kept path runs over: the index is charged, and a PoP
        # touched, for exactly what the forwarding tables route.
        routed = {edge for _, path, _ in path_rates for edge in path.edges}
        edge_rates: list[tuple[Edge, float]] = []
        for edge in self.edges:
            rate = float(x[col])
            col += 1
            if rate > RATE_EPS and edge in routed:
                edge_rates.append((edge, rate))
        return FleetPlan(
            session_id=self.spec.session_id,
            lambda_mbps=float(x[0]),
            path_rates=tuple(path_rates),
            edge_rates=tuple(edge_rates),
        )


class ColdSessionLP(SessionLP):
    """The cold oracle's LP: every shape compiled afresh, the memo never read."""

    @staticmethod
    def _shape_of(key: ShapeKey) -> LPShape:
        return compile_shape(key)
