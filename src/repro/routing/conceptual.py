"""Conceptual flows (Li, Li & Lau 2006): the coded-multicast flow model.

A multicast session with K receivers is modelled as K *conceptual
flows*, one per receiver, each individually a valid unicast flow from
the source.  The crucial relaxation: conceptual flows to different
receivers sharing a link do **not** add — network coding lets them
coexist — so the *actual* rate the session puts on link e is

    f_m(e) = max_k Σ_{p ∈ P^k_m : e ∈ p} f^k_m(p)            (Eqn. 1)

the maximum (not sum) over receivers of the per-receiver rate crossing
the link.  This module holds the data model the optimizer's solutions
are expressed in, plus the Eqn. 1 evaluation and validity checks.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.routing.paths import Path

#: A path or link carrying at most this (Mbps) is unused.
RATE_EPSILON = 1e-9
#: Solver slack :meth:`FlowDecomposition.validate` forgives (Mbps).
CAPACITY_EPSILON = 1e-6


@dataclass
class ConceptualFlow:
    """The flow to one receiver: rates on each of its feasible paths."""

    session_id: int
    receiver: str
    path_rates: dict[Path, float] = field(default_factory=dict)  # Path -> rate (Mbps)

    def rate(self) -> float:
        """Total conceptual flow rate (over all its paths)."""
        return sum(self.path_rates.values())

    def rate_on_edge(self, edge: tuple[str, str]) -> float:
        """Σ_{p ∋ e} f^k_m(p): this receiver's rate crossing ``edge``."""
        return sum(rate for path, rate in self.path_rates.items() if edge in path.edges)

    def used_paths(self) -> list[Path]:
        return [p for p, r in self.path_rates.items() if r > RATE_EPSILON]

    def add(self, path: Path, rate: float) -> None:
        if rate < 0:
            raise ValueError("path rate cannot be negative")
        self.path_rates[path] = self.path_rates.get(path, 0.0) + rate


@dataclass
class FlowDecomposition:
    """The full solution for one session: a conceptual flow per receiver."""

    session_id: int
    source: str
    flows: dict[str, ConceptualFlow] = field(default_factory=dict)  # receiver -> ConceptualFlow

    def throughput(self) -> float:
        """λ_m: the session rate every receiver can be served at.

        Constraint (2a): λ_m ≤ rate of each conceptual flow, so the
        achieved throughput is the minimum across receivers (0 for an
        empty session).
        """
        if not self.flows:
            return 0.0
        return min(flow.rate() for flow in self.flows.values())

    def link_rates(self) -> dict[tuple[str, str], float]:
        """f_m(e) per Eqn. 1 for every link any conceptual flow touches."""
        per_edge: dict[tuple[str, str], float] = defaultdict(float)
        for flow in self.flows.values():
            edge_rates: dict[tuple[str, str], float] = defaultdict(float)
            for path, rate in flow.path_rates.items():
                for edge in path.edges:
                    edge_rates[edge] += rate
            for edge, rate in edge_rates.items():
                per_edge[edge] = max(per_edge[edge], rate)
        return dict(per_edge)

    def coding_points(self) -> set[str]:
        """Nodes where coding is actually needed.

        Coding happens at a node only when multiple *incoming* used links
        of the same session meet there (§IV-A: "In the case where only
        one flow of a session arrives at a data center, direct forwarding
        is sufficient").
        """
        in_degree: dict[str, set[str]] = defaultdict(set)
        for edge, rate in self.link_rates().items():
            if rate > RATE_EPSILON:
                in_degree[edge[1]].add(edge[0])
        return {node for node, preds in in_degree.items() if len(preds) > 1}

    def validate(
        self,
        bandwidth_of: Callable[[tuple[str, str]], float] | None = None,
    ) -> None:
        """Sanity-check internal consistency; raises ``ValueError`` on violation."""
        for receiver, flow in self.flows.items():
            if flow.receiver != receiver:
                raise ValueError(f"flow stored under {receiver} claims receiver {flow.receiver}")
            for path, rate in flow.path_rates.items():
                if rate < -CAPACITY_EPSILON:
                    raise ValueError(f"negative rate {rate} on {path}")
                if path.nodes[0] != self.source:
                    raise ValueError(f"path {path} does not start at source {self.source}")
                if path.nodes[-1] != receiver:
                    raise ValueError(f"path {path} does not end at receiver {receiver}")
        if bandwidth_of is not None:
            for edge, rate in self.link_rates().items():
                cap = bandwidth_of(edge)
                if rate > cap + CAPACITY_EPSILON:
                    raise ValueError(f"link {edge} carries {rate:.3f} > capacity {cap:.3f}")


def actual_link_rates(decompositions: list[FlowDecomposition]) -> dict[tuple[str, str], float]:
    """Aggregate f(e) across sessions (rates of *different* sessions add)."""
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for decomposition in decompositions:
        for edge, rate in decomposition.link_rates().items():
            totals[edge] += rate
    return dict(totals)
