"""Per-session delta LP: admit one session against residual capacity.

Instead of re-solving problem (2) over the whole fleet on every join,
the fleet layer solves a *session-local* program whose only coupling to
the rest of the fleet is through the surplus index: shared-edge rows
are bounded by residual capacity, per-DC rows by the slack of live
VNFs plus however many more the quota allows.  The matrix is built
once per session; every solve only re-patches the rhs and bounds, so
the cached simplex basis from the previous solve warm-starts the next
one (see :func:`repro.lp.simplex.solve_simplex`).

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
the tie-break makes the optimum a *unique* vertex so warm and cold
solves land on identical routings, not merely equal objectives, and M
(set in :meth:`SessionLP.bind`) dominates every other term so α only
ranks routings and can never refuse a feasible session.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.fleet.capacity import RATE_EPS, Edge, FleetPlan, SurplusIndex
from repro.lp.simplex import FloatArray, SimplexResult, solve_simplex
from repro.routing.paths import Path

if TYPE_CHECKING:
    from repro.fleet.churn import SessionSpec

Bound = tuple[float | None, float | None]


class SessionLP:
    """Matrix-form delta LP for one session over the fleet overlay."""

    def __init__(
        self,
        spec: "SessionSpec",
        path_sets: Mapping[str, Sequence[Path]],
        shared_edges: frozenset[Edge],
        dc_names: frozenset[str],
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
        all_edges = sorted(
            {edge for paths in self.paths.values() for p in paths for edge in p.edges}
        )
        self.edges: tuple[Edge, ...] = tuple(all_edges)
        self.touched_dcs: tuple[str, ...] = tuple(
            sorted({n for edge in all_edges for n in edge if n in dc_names})
        )

        # -- column layout -------------------------------------------------
        self._path_col: dict[tuple[str, Path], int] = {}
        col = 1  # column 0 is λ
        for recv in self.receivers:
            for path in self.paths[recv]:
                self._path_col[(recv, path)] = col
                col += 1
        self._edge_col: dict[Edge, int] = {}
        for edge in self.edges:
            self._edge_col[edge] = col
            col += 1
        self._y_col: dict[str, int] = {}
        for dc in self.touched_dcs:
            self._y_col[dc] = col
            col += 1
        n = col

        # -- rows: written into one matrix preallocated at their upper bound --
        on_edge: list[dict[Edge, list[int]]] = []
        for recv in self.receivers:
            path_cols: dict[Edge, list[int]] = {}
            for path in self.paths[recv]:
                for edge in path.edges:
                    path_cols.setdefault(edge, []).append(self._path_col[(recv, path)])
            on_edge.append(path_cols)
        out_of: dict[str, list[int]] = {}
        into: dict[str, list[int]] = {}
        for edge, j in self._edge_col.items():
            out_of.setdefault(edge[0], []).append(j)
            into.setdefault(edge[1], []).append(j)
        most_rows = (
            2 * len(self.receivers)
            + sum(len(path_cols) for path_cols in on_edge)
            + len(self.edges)
            + 1
            + 2 * len(self.touched_dcs)
        )
        a = np.zeros((most_rows, n))
        rhs = np.zeros(most_rows)
        row = 0

        for recv in self.receivers:
            a[row, 0] = 1.0
            a[row, [self._path_col[(recv, path)] for path in self.paths[recv]]] = -1.0
            row += 1

        for path_cols in on_edge:
            for edge in sorted(path_cols):
                a[row, path_cols[edge]] = 1.0
                a[row, self._edge_col[edge]] = -1.0
                row += 1

        self._shared_rows: list[tuple[int, Edge]] = []
        for edge in self.edges:
            a[row, self._edge_col[edge]] = 1.0
            if edge in shared_edges:
                self._shared_rows.append((row, edge))  # rhs patched
            else:
                rhs[row] = access_mbps
            row += 1

        aggregates = [(out_of.get(self.spec.source_host()), source_out_mbps)]
        aggregates += [(into.get(recv), receiver_in_mbps) for recv in self.receivers]
        for cols, cap in aggregates:
            if cols:
                a[row, cols] = 1.0
                rhs[row] = cap
                row += 1

        # Per-DC rows: the y coefficient is filled by bind(), the rhs patched.
        self._dc_in_rows: list[tuple[int, str]] = []
        self._dc_out_rows: list[tuple[int, str]] = []
        for dc in self.touched_dcs:
            for cols, dc_rows in ((into.get(dc), self._dc_in_rows), (out_of.get(dc), self._dc_out_rows)):
                if cols:
                    a[row, cols] = 1.0
                    dc_rows.append((row, dc))
                    row += 1

        self._a: FloatArray = a[:row]
        self._static_rhs: FloatArray = rhs[:row]
        self._n = n
        self._bound = False

        # Objective: carry the rate if at all feasible (λ's weight is set
        # in bind() to dominate any achievable VNF cost, so α only ever
        # *ranks* routings, it cannot refuse a feasible session); the
        # per-g penalty prefers short routings and the per-path epsilon
        # makes the optimal vertex unique — warm and cold solves land on
        # the identical routing, not merely equal objectives.
        self._alpha = alpha
        c = np.zeros(n)
        c[0] = -1.0  # provisional; bind() re-weights against the DC caps
        for j in self._edge_col.values():
            c[j] = 1e-6
        for j in self._y_col.values():
            c[j] += alpha
        # The rank weight must clear the simplex pivot tolerance (1e-9)
        # by orders of magnitude, or warm and cold solves can stall on
        # different same-cost vertices of a degenerate optimum.
        for rank, j in enumerate(sorted(self._path_col.values())):
            c[j] += 1e-5 * (rank + 1)
        self._c: FloatArray = c
        self._signature: str | None = None

    def bind(self, index: SurplusIndex) -> None:
        """Fill the per-VNF capacity coefficients from the DC specs.

        Coefficients (unlike the rhs) are part of the matrix, so they
        are bound once; the specs are immutable.
        """
        for row, dc in self._dc_in_rows:
            self._a[row, self._y_col[dc]] = -index.datacenters[dc].in_cap_mbps
        for row, dc in self._dc_out_rows:
            self._a[row, self._y_col[dc]] = -index.datacenters[dc].outbound_mbps
        # One Mbps of λ moves at most R Mbps (one copy per receiver)
        # through each touched DC, requiring at most R/cap VNFs there, so
        # this weight strictly dominates the worst-case marginal cost of
        # carrying traffic — feasibility always wins over VNF thrift.
        copies = float(len(self.receivers))
        worst_vnf_cost = copies * sum(
            1.0 / index.datacenters[dc].in_cap_mbps + 1.0 / index.datacenters[dc].outbound_mbps
            for dc in self.touched_dcs
        )
        # 10× safety margins over the per-edge penalty and the worst
        # per-path tie-break a unit of λ could possibly incur.
        edge_budget = 1e-5 * copies * len(self.edges)
        tie_budget = 1e-4 * copies * (len(self._path_col) + 1)
        self._c[0] = -(1.0 + self._alpha * worst_vnf_cost + edge_budget + tie_budget)
        self._bound = True
        self._signature = None

    @property
    def signature(self) -> str:
        """Structure key: two LPs with equal signatures share warm bases."""
        if self._signature is None:
            digest = hashlib.sha256()
            digest.update(self._a.tobytes())
            digest.update(self._c.tobytes())
            digest.update(str(self._n).encode())
            self._signature = digest.hexdigest()
        return self._signature

    def solve(
        self,
        index: SurplusIndex,
        initial_basis: tuple[int, ...] | None = None,
    ) -> tuple[SimplexResult, FleetPlan | None]:
        """Patch rhs/bounds from the index and solve; extract the plan."""
        if not self._bound:
            self.bind(index)
        rhs = self._static_rhs.copy()
        for row, edge in self._shared_rows:
            rhs[row] = index.residual(edge)
        for row, dc in self._dc_in_rows:
            rhs[row] = index.slack_in(dc)
        for row, dc in self._dc_out_rows:
            rhs[row] = index.slack_out(dc)

        bounds: list[Bound] = [(0.0, None)] * self._n
        bounds[0] = (0.0, self.spec.rate_mbps)
        for dc, j in self._y_col.items():
            bounds[j] = (0.0, float(index.vnf_headroom(dc)))

        result = solve_simplex(
            self._c, a_ub=self._a, b_ub=rhs, bounds=bounds, initial_basis=initial_basis
        )
        if not result.success:
            return result, None
        return result, self._extract(result.x)

    def _extract(self, x: FloatArray) -> FleetPlan:
        path_rates: list[tuple[str, Path, float]] = []
        for recv in self.receivers:
            for path in self.paths[recv]:
                rate = float(x[self._path_col[(recv, path)]])
                if rate > RATE_EPS:
                    path_rates.append((recv, path, rate))
        # Only edges a kept path runs over: the index is charged, and a PoP
        # touched, for exactly what the forwarding tables route.
        routed = {edge for _, path, _ in path_rates for edge in path.edges}
        edge_rates: list[tuple[Edge, float]] = []
        for edge in self.edges:
            rate = float(x[self._edge_col[edge]])
            if rate > RATE_EPS and edge in routed:
                edge_rates.append((edge, rate))
        return FleetPlan(
            session_id=self.spec.session_id,
            lambda_mbps=float(x[0]),
            path_rates=tuple(path_rates),
            edge_rates=tuple(edge_rates),
        )
