"""Failure-triggered re-optimization: the self-healing control plane.

PR 2 left recovery shallow: on a ``vnf_failure`` verdict the butterfly
harness pruned the dead hop out of the *existing* forwarding tables and
re-keyed the source's shares over its *existing* next hops.  That works
when the corpse is downstream of every source branch (T, V2) and fails
exactly when the corpse **is** a source next-hop (O1): the source keeps
pumping half its degrees of freedom into a black hole and both
receivers stall at half rank — the ROADMAP's tested-but-unfixed typed
outcome.

This module closes the loop properly.  :func:`plan_recovery` re-runs
the paper's own machinery — the delay-pruned feasible-path DFS
(:mod:`repro.routing.paths`) and the problem-(2) LP deployment
(:class:`~repro.core.deployment.DeploymentProblem` over
:mod:`repro.lp`) — on a topology view with the dead nodes and every
link touching them excised.  The solved
:class:`~repro.routing.conceptual.FlowDecomposition` is then lowered by
:func:`~repro.core.dataplane.lower_session` — the same lowering that
stands a fresh plan up — to the
:class:`~repro.core.dataplane.SessionWiring` the data plane consumes,
and the post-failure margins are applied to its shares and λ.  Two of
its parts exist for recovery's sake: **zero** skip entries that clear
stale merge-point shapes (a T still skipping k/2 arrivals after the
merge is gone would silently halve the surviving branch), and reverse
control paths, so a receiver whose feedback channel ran through the
corpse is re-pointed too.

Everything here is pure planning over graph data: no scheduler, no I/O,
bit-deterministic for a given topology and dead set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from repro.core.dataplane import SessionWiring, lower_session
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.forwarding import ForwardingTable
from repro.core.session import MulticastSession
from repro.lp import SolveError

#: Post-failure margins, as fractions of the LP optimum of whatever
#: topology survived.  On a single-corpse butterfly that optimum is one
#: 35 Mbps branch per receiver: the wire share backs off to 34 Mbps
#: (headers ride the wire too — 1500 B on the link move 1460 B of
#: blocks — and repairs need headroom) and the goodput λ drops to
#: 27 Mbps so every generation carries ~k+1 packets per branch —
#: without that margin a receiver sees exactly k random recodes per
#: generation and the GF(256) singular-matrix rate (~0.4 %) stalls the
#: window for a NACK round-trip every few hundred generations.
DEFAULT_WIRE_FRACTION = 34.0 / 35.0
DEFAULT_GOODPUT_FRACTION = 27.0 / 35.0


@dataclass(frozen=True)
class RecoveryPlan:
    """A solved post-failure deployment, lowered to its wiring."""

    dead_nodes: tuple[str, ...]
    #: The surviving routing with the margins applied; ``None`` when no
    #: route survives.
    wiring: SessionWiring | None = None
    #: LP optimum on the excised topology, before margins (Mbps).
    lp_lambda_mbps: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.wiring is not None

    @property
    def source_shares(self) -> dict[str, float]:
        """Source next hop -> wire share (Mbps)."""
        return dict(self.wiring.source_shares) if self.wiring is not None else {}

    @property
    def tables(self) -> dict[str, ForwardingTable]:
        """Surviving relay -> its fresh forwarding table."""
        if self.wiring is None:
            return {}
        sid = self.wiring.session_id
        return {
            relay: ForwardingTable({sid: list(wired.next_hops)})
            for relay, wired in self.wiring.relays.items()
        }


def excised_view(graph: nx.DiGraph, dead: Iterable[str]) -> nx.DiGraph:
    """A read-only view of ``graph`` with ``dead`` nodes and their links gone."""
    return nx.restricted_view(graph, tuple(dead), ())


def plan_recovery(
    graph: nx.DiGraph,
    session: MulticastSession,
    dead: Iterable[str],
    relay_nodes: Iterable[str],
    relay_capacity_mbps: float = 900.0,
    wire_fraction: float = DEFAULT_WIRE_FRACTION,
    goodput_fraction: float = DEFAULT_GOODPUT_FRACTION,
) -> RecoveryPlan:
    """Re-solve deployment and routing with the dead nodes excised.

    ``graph`` is the *full* (pre-failure) network view; ``dead`` names
    the nodes declared dead by the failure detector.  Returns an
    infeasible plan (``feasible=False``) rather than raising when no
    route survives — the caller then reports a typed failure instead of
    pretending to recover.
    """
    dead_set = frozenset(dead)
    infeasible = RecoveryPlan(dead_nodes=tuple(sorted(dead_set)))
    if session.source in dead_set or any(r in dead_set for r in session.receivers):
        return infeasible
    survivors = [r for r in relay_nodes if r not in dead_set]
    if not survivors:
        return infeasible
    view = excised_view(graph, dead_set)
    specs = [
        DataCenterSpec(name, relay_capacity_mbps, relay_capacity_mbps, relay_capacity_mbps)
        for name in survivors
    ]
    problem = DeploymentProblem(view, specs, alpha=1.0)
    demand = problem.build_demand(session)
    if not demand.has_feasible_paths():
        return infeasible
    try:
        lp_plan = problem.solve([demand])
    except SolveError:
        return infeasible
    sid = session.session_id
    lp_lambda = lp_plan.lambdas.get(sid, 0.0)
    if lp_lambda <= 1e-6:
        return infeasible
    # Sorted, so the source's share order after a replan does not depend
    # on the order the LP's path enumeration met the links in.
    link_rates = dict(sorted(lp_plan.decompositions[sid].link_rates().items()))
    wiring = lower_session(link_rates, session, survivors, view, lp_lambda)
    return RecoveryPlan(
        dead_nodes=infeasible.dead_nodes,
        wiring=wiring.scaled(wire_fraction, goodput_fraction),
        lp_lambda_mbps=lp_lambda,
    )
