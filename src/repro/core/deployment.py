"""Problem (2): joint coding-function deployment and multicast routing.

Decision variables (paper §IV-A):

- ``f^k_m(p)`` — conceptual-flow rate of session m's receiver k on
  feasible path p ∈ P^k_m,
- ``f_m(e)`` — actual coded rate of session m on link e (Eqn. 1),
- ``λ_m`` — end-to-end throughput of session m,
- ``x_v`` — integer number of VNFs deployed in data center v.

Objective: maximize Σ_m λ_m − α Σ_v x_v, subject to (2a)–(2g).

The LP relaxation is solved (HiGHS by default), x rounded up
(:mod:`repro.lp.rounding`), and the result packaged as a
:class:`DeploymentPlan` holding per-session
:class:`~repro.routing.conceptual.FlowDecomposition` objects.

Incremental re-optimization — the workhorse of the scaling algorithms —
is expressed with two knobs, following §IV-B's "based on the current
deployment and flows except affected data centers and flows":

- ``frozen`` — already-routed sessions whose flows must not move; their
  link usage and VNF load enter the constraints as constants.
- ``baseline_vnfs`` — VNFs already deployed (and paid for); only VNFs
  *above* the baseline are charged α in the objective, so re-solves
  prefer reusing live capacity (and the τ grace window makes reuse
  cheap at the VM layer too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import networkx as nx

from repro.core.session import MulticastSession
from repro.lp import LinearProgram, LinExpr, SolveError, Variable, round_up_integers
from repro.routing.conceptual import ConceptualFlow, FlowDecomposition
from repro.routing.paths import Path, feasible_path_sets

#: A directed link, and what an LP expression may still be mid-fold.
Edge = tuple[str, str]
Expr = Variable | LinExpr


@dataclass
class SessionDemand:
    """One session as the optimizer sees it: its feasible path sets."""

    session: MulticastSession
    path_sets: dict[str, list[Path]]  # receiver -> list[Path]

    @property
    def session_id(self) -> int:
        return self.session.session_id

    def all_edges(self) -> list[Edge]:
        """Every link a candidate path uses, sorted: this is the order the
        LP's ``fm`` columns are laid out in, and among alternative optima
        the solver's vertex follows column order — iterating the bare set
        made Fig. 12/13's VNF counts depend on ``PYTHONHASHSEED``."""
        edges: set[Edge] = set()
        for paths in self.path_sets.values():
            for path in paths:
                edges.update(path.edges)
        return sorted(edges)

    def has_feasible_paths(self) -> bool:
        return all(self.path_sets.get(r) for r in self.session.receivers)


@dataclass
class DataCenterSpec:
    """Optimizer view of one candidate data center."""

    name: str
    inbound_mbps: float   # B_in(v): per-VNF inbound cap
    outbound_mbps: float  # B_out(v): per-VNF outbound cap
    coding_mbps: float    # C(v): per-VNF coding capacity

    def __post_init__(self) -> None:
        if min(self.inbound_mbps, self.outbound_mbps, self.coding_mbps) <= 0:
            raise ValueError(f"{self.name}: caps and capacity must be positive")


@dataclass
class DeploymentPlan:
    """Solved deployment: VNF counts, session rates, and routed flows."""

    vnf_counts: dict[str, int] = dataclass_field(default_factory=dict)
    lambdas: dict[int, float] = dataclass_field(default_factory=dict)  # session id -> Mbps
    decompositions: dict[int, FlowDecomposition] = dataclass_field(default_factory=dict)
    objective: float = 0.0
    lp_objective: float = 0.0
    alpha: float = 0.0

    @property
    def total_throughput_mbps(self) -> float:
        return sum(self.lambdas.values())

    @property
    def total_vnfs(self) -> int:
        return sum(self.vnf_counts.values())

    def vnfs_at(self, datacenter: str) -> int:
        return self.vnf_counts.get(datacenter, 0)

    def merged_with(self, other: "DeploymentPlan") -> "DeploymentPlan":
        """Union of two plans (e.g., frozen sessions + newly routed ones)."""
        counts = dict(self.vnf_counts)
        for dc, n in other.vnf_counts.items():
            counts[dc] = max(counts.get(dc, 0), n)
        return DeploymentPlan(
            vnf_counts=counts,
            lambdas={**self.lambdas, **other.lambdas},
            decompositions={**self.decompositions, **other.decompositions},
            objective=self.objective + other.objective,
            lp_objective=self.lp_objective + other.lp_objective,
            alpha=self.alpha,
        )


class DeploymentProblem:
    """Builder/solver for problem (2) over a network snapshot.

    Parameters
    ----------
    graph:
        Directed graph with ``capacity_mbps`` and ``delay_ms`` edge
        attributes covering sources, receivers and data centers.
    datacenters:
        Candidate deployment locations (the set V).
    alpha:
        The throughput-vs-cost conversion factor (Mbps per VNF).
    source_outbound_mbps / receiver_inbound_mbps:
        Caps for constraint (2d') and (2c').
    max_vnfs_per_dc:
        Upper bound on each x_v (a quota; generous by default).
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        datacenters: list[DataCenterSpec],
        alpha: float = 20.0,
        source_outbound_mbps: float = 1000.0,
        receiver_inbound_mbps: float = 1000.0,
        max_vnfs_per_dc: int = 64,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.graph = graph
        self.datacenters = {dc.name: dc for dc in datacenters}
        if not self.datacenters:
            raise ValueError("at least one candidate data center is required")
        if len(self.datacenters) != len(datacenters):
            raise ValueError("duplicate data-center names")
        missing = [name for name in self.datacenters if name not in graph]
        if missing:
            raise ValueError(f"data centers absent from graph: {missing}")
        self.alpha = alpha
        self.source_outbound_mbps = source_outbound_mbps
        self.receiver_inbound_mbps = receiver_inbound_mbps
        self.max_vnfs_per_dc = max_vnfs_per_dc

    # -- demand construction ------------------------------------------------

    def build_demand(self, session: MulticastSession, max_hops: int | None = 6) -> SessionDemand:
        """Enumerate session m's feasible path sets P^k_m (§IV-A DFS)."""
        path_sets = feasible_path_sets(
            self.graph,
            session.source,
            session.receivers,
            session.max_delay_ms,
            relay_nodes=set(self.datacenters),
            max_hops=max_hops,
        )
        return SessionDemand(session=session, path_sets=path_sets)

    # -- the LP -----------------------------------------------------------------

    def solve(
        self,
        demands: list[SessionDemand],
        frozen: list[DeploymentPlan] | None = None,
        baseline_vnfs: dict[str, int] | None = None,
        fixed_vnfs: dict[str, int] | None = None,
        backend: str = "highs",
    ) -> DeploymentPlan:
        """Solve (2) for ``demands``; ``frozen`` plans stay untouched.

        ``frozen`` is a list of :class:`DeploymentPlan` whose flows keep
        consuming link/VNF capacity; ``baseline_vnfs`` maps data center →
        VNFs already deployed (cost-free to reuse).  ``fixed_vnfs`` pins
        x_v exactly (the "based on existing VNF deployment" re-solves of
        Alg. 3: no scaling, only rerouting).  Returns the plan for the
        *optimized* demands only — merge with the frozen plans via
        :meth:`DeploymentPlan.merged_with` if a global view is needed.
        """
        frozen = frozen or []
        baseline = dict(baseline_vnfs or {})
        for plan in frozen:
            for dc, n in plan.vnf_counts.items():
                baseline[dc] = max(baseline.get(dc, 0), n)
        frozen_link_load = self._frozen_link_load(frozen)

        lp = LinearProgram()
        lam_vars: dict[int, Variable] = {}
        x_vars: dict[str, Variable] = {}
        path_vars: dict[tuple[int, str, Path], Variable] = {}
        link_vars: dict[tuple[int, Edge], Variable] = {}

        for dc in self.datacenters.values():
            if fixed_vnfs is not None:
                pinned = fixed_vnfs.get(dc.name, 0)
                x_vars[dc.name] = lp.add_variable(f"x[{dc.name}]", lower=pinned, upper=pinned, integer=True)
            else:
                x_vars[dc.name] = lp.add_variable(
                    f"x[{dc.name}]", lower=0, upper=self.max_vnfs_per_dc, integer=True
                )

        for demand in demands:
            session = demand.session
            sid = session.session_id
            if not demand.has_feasible_paths():
                continue  # no route within Lmax; session gets rate 0
            if session.fixed_rate_mbps is None:
                lam_vars[sid] = lp.add_variable(f"lambda[{sid}]")
            for receiver, paths in demand.path_sets.items():
                for path in paths:
                    path_vars[(sid, receiver, path)] = lp.add_variable(f"f[{sid},{receiver},{'>'.join(path.nodes)}]")
            for edge in demand.all_edges():
                link_vars[(sid, edge)] = lp.add_variable(f"fm[{sid},{edge[0]}->{edge[1]}]")

        # (2a) λ_m ≤ Σ_p f^k_m(p) for every receiver k.
        for demand in demands:
            session = demand.session
            sid = session.session_id
            if not demand.has_feasible_paths():
                continue
            target = lam_vars.get(sid)
            for receiver, paths in demand.path_sets.items():
                total = self._sum([path_vars[(sid, receiver, p)] for p in paths])
                if target is not None:
                    lp.add_constraint(target - total <= 0.0, name=f"2a[{sid},{receiver}]")
                else:
                    assert session.fixed_rate_mbps is not None  # else λ would be a variable
                    lp.add_constraint(total >= session.fixed_rate_mbps, name=f"2a-fixed[{sid},{receiver}]")

        # (2b) Σ_{p ∋ e} f^k_m(p) ≤ f_m(e).
        for demand in demands:
            sid = demand.session_id
            if not demand.has_feasible_paths():
                continue
            for receiver, paths in demand.path_sets.items():
                on_edge: dict[Edge, list[Variable]] = {}
                for path in paths:
                    for edge in path.edges:
                        on_edge.setdefault(edge, []).append(path_vars[(sid, receiver, path)])
                for edge, pvars in on_edge.items():
                    expr = self._sum(pvars)
                    lp.add_constraint(expr - link_vars[(sid, edge)] <= 0.0, name=f"2b[{sid},{receiver},{edge}]")

        # Link capacity: Σ_m f_m(e) ≤ capacity(e) (implied by the paper's
        # bandwidth-bounded links; required for a meaningful flow model).
        per_edge_vars: dict[Edge, list[Variable]] = {}
        for (sid, edge), var in link_vars.items():
            per_edge_vars.setdefault(edge, []).append(var)
        for edge, evars in per_edge_vars.items():
            cap = float(self.graph.edges[edge]["capacity_mbps"]) - frozen_link_load.get(edge, 0.0)
            lp.add_constraint(self._sum(evars) <= max(0.0, cap), name=f"cap[{edge}]")

        # (2c)/(2d)/(2e): per-data-center aggregate in/out/coding bounded by
        # x_v VNFs (baseline VNFs already count — they are real capacity).
        for dc in self.datacenters.values():
            in_vars = [var for (sid, edge), var in link_vars.items() if edge[1] == dc.name]
            out_vars = [var for (sid, edge), var in link_vars.items() if edge[0] == dc.name]
            frozen_in = sum(load for edge, load in frozen_link_load.items() if edge[1] == dc.name)
            frozen_out = sum(load for edge, load in frozen_link_load.items() if edge[0] == dc.name)
            x = x_vars[dc.name]
            # Frozen load on a DC the new demands never touch still needs
            # its x_v floor — sum over an empty var list is 0·x, not a crash.
            if in_vars or frozen_in:
                expr = self._sum(in_vars or [0.0 * x])
                lp.add_constraint(expr - dc.inbound_mbps * x <= -frozen_in, name=f"2c[{dc.name}]")
                lp.add_constraint(expr - dc.coding_mbps * x <= -frozen_in, name=f"2e[{dc.name}]")
            if out_vars or frozen_out:
                expr = self._sum(out_vars or [0.0 * x])
                lp.add_constraint(expr - dc.outbound_mbps * x <= -frozen_out, name=f"2d[{dc.name}]")

        # (2c') receiver inbound caps and (2d') source outbound caps.
        for demand in demands:
            session = demand.session
            sid = session.session_id
            if not demand.has_feasible_paths():
                continue
            for receiver in session.receivers:
                rvars = [var for (s, edge), var in link_vars.items() if s == sid and edge[1] == receiver]
                if rvars:
                    lp.add_constraint(self._sum(rvars) <= self.receiver_inbound_mbps, name=f"2c'[{sid},{receiver}]")
            svars = [var for (s, edge), var in link_vars.items() if s == sid and edge[0] == session.source]
            if svars:
                lp.add_constraint(self._sum(svars) <= self.source_outbound_mbps, name=f"2d'[{sid}]")

        # Objective: Σ λ_m − α Σ extra_v, where extra_v = max(0, x_v − baseline_v)
        # is modelled by charging only the part of x above the baseline.
        # A tiny per-Mbps-per-link penalty breaks ties toward bandwidth-
        # efficient routings (and keeps fixed-rate sessions from routing
        # surplus flow, since their λ carries no objective weight).
        objective: Expr = 0.0 * x_vars[next(iter(x_vars))]
        for lam in lam_vars.values():
            objective = objective + lam
        extra_vars: dict[str, Variable] = {}
        for name, x in x_vars.items():
            base = baseline.get(name, 0)
            extra = lp.add_variable(f"extra[{name}]")
            extra_vars[name] = extra
            lp.add_constraint(x - extra <= base, name=f"extra[{name}]")
            objective = objective - self.alpha * extra
        for var in link_vars.values():
            objective = objective - 1e-6 * var
        lp.maximize(objective)

        solution = lp.solve(backend=backend)
        rounded = round_up_integers(solution)

        plan = DeploymentPlan(alpha=self.alpha, lp_objective=solution.objective)
        for name, x in x_vars.items():
            plan.vnf_counts[name] = rounded[x]
        for demand in demands:
            session = demand.session
            sid = session.session_id
            decomposition = FlowDecomposition(session_id=sid, source=session.source)
            if not demand.has_feasible_paths():
                plan.lambdas[sid] = 0.0
                plan.decompositions[sid] = decomposition
                continue
            for receiver, paths in demand.path_sets.items():
                flow = ConceptualFlow(session_id=sid, receiver=receiver)
                for path in paths:
                    rate = solution[path_vars[(sid, receiver, path)]]
                    if rate > 1e-9:
                        flow.add(path, rate)
                decomposition.flows[receiver] = flow
            plan.decompositions[sid] = decomposition
            if session.fixed_rate_mbps is not None:
                plan.lambdas[sid] = session.fixed_rate_mbps
            else:
                plan.lambdas[sid] = max(0.0, solution[lam_vars[sid]])
        if fixed_vnfs is None:
            self._set_minimal_vnf_counts(plan, frozen_link_load)
        else:
            plan.vnf_counts = {name: fixed_vnfs.get(name, 0) for name in self.datacenters}
        plan.objective = plan.total_throughput_mbps - self.alpha * sum(
            max(0, plan.vnf_counts[name] - baseline.get(name, 0)) for name in plan.vnf_counts
        )
        return plan

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _sum(variables: Sequence[Expr]) -> Expr:
        expr: Expr = variables[0]
        for var in variables[1:]:
            expr = expr + var
        return expr

    @staticmethod
    def _frozen_link_load(frozen: list[DeploymentPlan]) -> dict[Edge, float]:
        load: dict[Edge, float] = {}
        for plan in frozen:
            for decomposition in plan.decompositions.values():
                for edge, rate in decomposition.link_rates().items():
                    load[edge] = load.get(edge, 0.0) + rate
        return load

    def _set_minimal_vnf_counts(self, plan: DeploymentPlan, frozen_link_load: dict[Edge, float]) -> None:
        """Replace rounded x_v by the exact minimum each data center needs.

        LP rounding can leave x_v = 1 at a data center the LP touched at
        rate ε.  The true requirement is determined by the routed rates:
        a data center handling aggregate inflow I and outflow O (own plan
        + frozen sessions) needs ``max(ceil(I / min(B_in, C)),
        ceil(O / B_out))`` VNFs.  Plans carrying the frozen load's share
        makes :meth:`DeploymentPlan.merged_with` (which takes per-DC
        maxima) produce the correct global count.
        """
        load: dict[Edge, float] = dict(frozen_link_load)
        for decomposition in plan.decompositions.values():
            for edge, rate in decomposition.link_rates().items():
                load[edge] = load.get(edge, 0.0) + rate
        for name, dc in self.datacenters.items():
            inflow = sum(rate for edge, rate in load.items() if edge[1] == name)
            outflow = sum(rate for edge, rate in load.items() if edge[0] == name)
            required = max(
                math.ceil(inflow / min(dc.inbound_mbps, dc.coding_mbps) - 1e-9),
                math.ceil(outflow / dc.outbound_mbps - 1e-9),
            )
            plan.vnf_counts[name] = max(required, 0)
