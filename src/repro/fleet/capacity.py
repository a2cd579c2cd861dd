"""Surplus-capacity index: O(plan) admission bookkeeping.

The whole point of the fleet layer is that admitting a small session
must not touch the plans of sessions it does not compete with.  The
index keeps the aggregate state a delta solve needs — residual
capacity per shared WAN edge, aggregate in/out load and live VNF
count per data center — and updates it in time proportional to the
*new session's* plan, never the fleet size.

``rebuild()`` recomputes the same state from scratch out of the stored
plans; the property tests drive the incremental and rebuilt paths in
lockstep to prove they never diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.routing.paths import Path

Edge = tuple[str, str]

#: Guard against float-noise ceilings: ceil(x/c - _CEIL_EPS).
_CEIL_EPS = 1e-9

#: The one "is this rate zero" threshold (Mbps): a flow at or below it is
#: solver dust — it enters neither a plan's rates nor a forwarding table.
RATE_EPS = 1e-6


def canonical_rate(mbps: float) -> float:
    """An LP-derived rate as fingerprints see it: on the ``RATE_EPS`` grid.

    The one way such a float enters a ``canonical()``.  Pivot sequences,
    ``B⁻¹ b`` answers and apply/release bookkeeping agree on a rate only to
    the last few ulps ((a + x) − x can differ from a; a remembered basis
    gives 9.999999999999998 where cold pivots give 10.0), so hashing the
    raw value would flag rounding noise as a different decision.  Only the
    hashed copy is rounded — plans, verdicts and the index keep raw floats.
    """
    return round(mbps, 6) + 0.0  # +0.0 folds -0.0 into 0.0


@dataclass(frozen=True)
class FleetDataCenter:
    """Per-VNF capacity profile of one candidate PoP data center."""

    name: str
    inbound_mbps: float
    outbound_mbps: float
    coding_mbps: float
    max_vnfs: int = 64

    def __post_init__(self) -> None:
        if min(self.inbound_mbps, self.outbound_mbps, self.coding_mbps) <= 0:
            raise ValueError(f"{self.name}: per-VNF caps must be positive")
        if self.max_vnfs <= 0:
            raise ValueError(f"{self.name}: VNF quota must be positive")

    @property
    def in_cap_mbps(self) -> float:
        """Effective per-VNF inbound capacity: min(B_in, C) (2c ∧ 2e)."""
        return min(self.inbound_mbps, self.coding_mbps)


@dataclass(frozen=True)
class FleetPlan:
    """One admitted session's routed flows, as the index consumes them."""

    session_id: int
    lambda_mbps: float
    #: (receiver host, path, conceptual-flow rate) with rate > RATE_EPS.
    path_rates: tuple[tuple[str, Path, float], ...]
    #: (edge, actual coded rate) with rate > RATE_EPS; covers host + WAN
    #: edges, each of them on at least one path in ``path_rates``.
    edge_rates: tuple[tuple[Edge, float], ...]

    def edges(self) -> tuple[Edge, ...]:
        return tuple(edge for edge, _ in self.edge_rates)

    def datacenters(self, dc_names: frozenset[str]) -> tuple[str, ...]:
        """Sorted data centers this plan routes through."""
        touched = {n for edge, _ in self.edge_rates for n in edge if n in dc_names}
        return tuple(sorted(touched))

    def routes(self) -> dict[str, set[str]]:
        """Forwarding-table lines (``sid:prev->next``) per relaying node."""
        lines: dict[str, set[str]] = {}
        for _, path, rate in self.path_rates:
            if rate <= RATE_EPS:
                continue
            nodes = path.nodes
            for i in range(1, len(nodes) - 1):
                lines.setdefault(nodes[i], set()).add(f"{self.session_id}:{nodes[i - 1]}->{nodes[i + 1]}")
        return lines


class SurplusIndex:
    """Residual capacity and VNF load, maintained incrementally."""

    def __init__(
        self,
        edge_caps: Mapping[Edge, float],
        datacenters: Mapping[str, FleetDataCenter],
    ) -> None:
        self.edge_caps: dict[Edge, float] = dict(edge_caps)
        self.datacenters: dict[str, FleetDataCenter] = dict(datacenters)
        self.edge_load: dict[Edge, float] = {}
        self.dc_in: dict[str, float] = {}
        self.dc_out: dict[str, float] = {}
        self.vnfs: dict[str, int] = {}

    # -- queries the delta LP patches its rhs from -----------------------

    def residual(self, edge: Edge) -> float:
        """Spare capacity on a shared WAN edge (clamped at 0)."""
        cap = self.edge_caps.get(edge)
        if cap is None:
            raise KeyError(f"{edge} is not a shared edge")
        return max(0.0, cap - self.edge_load.get(edge, 0.0))

    def slack_in(self, dc: str) -> float:
        """Inbound Mbps the DC's *live* VNFs can still absorb."""
        spec = self.datacenters[dc]
        slack = self.vnfs.get(dc, 0) * spec.in_cap_mbps - self.dc_in.get(dc, 0.0)
        return max(0.0, slack)

    def slack_out(self, dc: str) -> float:
        """Outbound Mbps the DC's live VNFs can still emit."""
        spec = self.datacenters[dc]
        slack = self.vnfs.get(dc, 0) * spec.outbound_mbps - self.dc_out.get(dc, 0.0)
        return max(0.0, slack)

    def vnf_headroom(self, dc: str) -> int:
        """VNFs that could still be launched under the quota."""
        return max(0, self.datacenters[dc].max_vnfs - self.vnfs.get(dc, 0))

    def required_vnfs(self, dc: str) -> int:
        """Minimum VNFs the DC's current aggregate load needs."""
        spec = self.datacenters[dc]
        inbound = self.dc_in.get(dc, 0.0)
        outbound = self.dc_out.get(dc, 0.0)
        required = max(
            math.ceil(inbound / spec.in_cap_mbps - _CEIL_EPS),
            math.ceil(outbound / spec.outbound_mbps - _CEIL_EPS),
        )
        return max(0, required)

    # -- O(plan) mutation -------------------------------------------------

    def apply(self, plan: FleetPlan) -> None:
        """Charge a newly admitted plan's flows to the index."""
        for edge, rate in plan.edge_rates:
            if edge in self.edge_caps:
                self.edge_load[edge] = self.edge_load.get(edge, 0.0) + rate
            src, dst = edge
            if dst in self.datacenters:
                self.dc_in[dst] = self.dc_in.get(dst, 0.0) + rate
            if src in self.datacenters:
                self.dc_out[src] = self.dc_out.get(src, 0.0) + rate

    def release(self, plan: FleetPlan) -> None:
        """Return a departing plan's flows to the surplus pool."""
        for edge, rate in plan.edge_rates:
            if edge in self.edge_caps:
                self.edge_load[edge] = max(0.0, self.edge_load.get(edge, 0.0) - rate)
            src, dst = edge
            if dst in self.datacenters:
                self.dc_in[dst] = max(0.0, self.dc_in.get(dst, 0.0) - rate)
            if src in self.datacenters:
                self.dc_out[src] = max(0.0, self.dc_out.get(src, 0.0) - rate)

    def rebuild(self, plans: Iterable[FleetPlan]) -> None:
        """Recompute loads from scratch (the cold-mode oracle path).

        VNF counts are reset to the exact requirement of the rebuilt
        load — the state a fresh controller would arrive at.
        """
        self.edge_load = {}
        self.dc_in = {}
        self.dc_out = {}
        for plan in plans:
            self.apply(plan)
        self.vnfs = {dc: self.required_vnfs(dc) for dc in self.datacenters}
        self.vnfs = {dc: n for dc, n in self.vnfs.items() if n > 0}

    # -- state export -----------------------------------------------------

    def canonical(self) -> tuple[tuple[str, ...], ...]:
        """Deterministic state tuple for fingerprints and equivalence."""
        q = canonical_rate
        edges = tuple(
            f"{a}->{b}={q(self.edge_load[(a, b)])!r}"
            for a, b in sorted(self.edge_load)
            if self.edge_load[(a, b)] > 1e-9
        )
        dcs = tuple(
            f"{dc}:in={q(self.dc_in.get(dc, 0.0))!r}:out={q(self.dc_out.get(dc, 0.0))!r}:x={self.vnfs.get(dc, 0)}"
            for dc in sorted(self.datacenters)
        )
        return (edges, dcs)

    @property
    def total_vnfs(self) -> int:
        return sum(self.vnfs.values())
