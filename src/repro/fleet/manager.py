"""Fleet controller: hundreds of sessions on the OS3E WAN overlay.

The manager runs the service-provider side of Alg. 3 at fleet scale.
Data centers sit in a subset of OS3E PoP cities and form a full mesh
overlay whose edge latencies are shortest-path WAN propagation delays
(:func:`repro.net.topology.os3e_latency_ms`); each session's hosts
attach to their nearest PoPs over access links.  Admission solves a
*per-session delta LP* (:class:`repro.fleet.planner.SessionLP`)
against the surplus index — answered from a remembered basis when one
still fits — so the cost of a join is independent of fleet size.
Departures release capacity and retire surplus VNFs with **zero** LP
solves.

``mode="cold"`` is the equivalence oracle: it rebuilds the index from
scratch before every event and solves without a basis.  The property
suite drives both modes over the same churn traces and asserts the
verdicts, rates, VNF counts and forwarding tables never diverge.

Config pushes ride the existing epoch machinery: every applied change
bumps ``config_epoch`` and the NC_SETTINGS / NC_FORWARD_TAB signals
are stamped with it, so a stale fleet table can never clobber a newer
one at a daemon (DESIGN.md §11).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.core.deployment import DataCenterSpec, DeploymentPlan, DeploymentProblem, SessionDemand
from repro.core.session import MulticastSession
from repro.core.signals import NcForwardTab, NcSettings, NcStart, NcVnfEnd, NcVnfStart, SignalPort
from repro.fleet.capacity import Edge, FleetDataCenter, FleetPlan, SurplusIndex
from repro.fleet.churn import SessionSpec
from repro.fleet.planner import BasisMemory, ColdSessionLP, SessionLP
from repro.lp.simplex import KEPT_BASES, SimplexResult
from repro.fleet.verdict import AdmissionStatus, AdmissionVerdict
from repro.net.topology import os3e_latency_ms
from repro.routing.paths import Path

#: A session is admitted only if the LP carries its full rate (minus noise).
_RATE_TOL = 1e-6


def _solver_fault(result: SimplexResult) -> str:
    """Why a solve returned no plan.

    Every rhs of a session LP is clamped at ≥ 0, so ``x = 0`` is feasible
    and a failed solve is a fault of the solver, never a fact about capacity.
    """
    return f"solver {result.status} after {result.iterations} pivots"


INCREMENTAL = "incremental"
COLD = "cold"


Route = tuple[tuple[str, ...], float]


class OverlayGeometry:
    """What host cities see of the overlay: pure, so computed once and shared.

    Every manager over the default OS3E latency map with the same PoPs,
    attach count and access delay shares one instance (a shard takeover
    builds a new manager, not a new geometry); nothing here is ever
    written after it is first computed.
    """

    def __init__(
        self,
        wan: Mapping[str, Mapping[str, float]],
        dc_names: tuple[str, ...],
        attach_dcs: int,
        access_delay_ms: float,
    ) -> None:
        self.wan = wan
        self._dc_names = dc_names
        self._attach_dcs = attach_dcs
        self._access_delay_ms = access_delay_ms
        self._attachments: dict[str, tuple[str, ...]] = {}
        self._routes: dict[tuple[str, str], tuple[Route, ...]] = {}

    def attachments(self, city: str) -> tuple[str, ...]:
        """The nearest PoP data centers to a host city; KeyError if unknown."""
        near = self._attachments.get(city)
        if near is None:
            if city not in self.wan:
                raise KeyError(f"unknown city {city!r}")
            row = self.wan[city]
            ranked = sorted(self._dc_names, key=lambda dc: (row[dc], dc))
            near = self._attachments[city] = tuple(ranked[: self._attach_dcs])
        return near

    def routes(self, source_city: str, receiver_city: str) -> tuple[Route, ...]:
        """Every city→a(→b)→city relay chain as (relays, delay), nearest first."""
        found = self._routes.get((source_city, receiver_city))
        if found is None:
            wan, access = self.wan, self._access_delay_ms
            routes: list[Route] = []
            for a in self.attachments(source_city):
                d_src = wan[source_city][a] + access
                for b in self.attachments(receiver_city):
                    d_recv = wan[b][receiver_city] + access
                    if a == b:
                        routes.append(((a,), d_src + d_recv))
                    else:
                        routes.append(((a, b), d_src + wan[a][b] + d_recv))
            routes.sort(key=lambda route: (route[1], len(route[0]), route[0]))
            found = self._routes[(source_city, receiver_city)] = tuple(routes)
        return found


@lru_cache(maxsize=64)
def _os3e_geometry(dc_names: tuple[str, ...], attach_dcs: int, access_delay_ms: float) -> OverlayGeometry:
    return OverlayGeometry(os3e_latency_ms(), dc_names, attach_dcs, access_delay_ms)


class FleetManager:
    """Admission, departure and replanning for a multi-session fleet."""

    def __init__(
        self,
        datacenters: Sequence[FleetDataCenter],
        *,
        backbone_mbps: float = 20_000.0,
        access_mbps: float = 1_000.0,
        access_delay_ms: float = 2.0,
        alpha: float = 20.0,
        attach_dcs: int = 2,
        source_out_mbps: float = 1_000.0,
        receiver_in_mbps: float = 1_000.0,
        mode: str = INCREMENTAL,
        bus: SignalPort | None = None,
        latency_ms: Mapping[str, Mapping[str, float]] | None = None,
        basis_memory: BasisMemory | None = None,
    ) -> None:
        if mode not in (INCREMENTAL, COLD):
            raise ValueError(f"unknown mode {mode!r}")
        if not datacenters:
            raise ValueError("at least one data center is required")
        if attach_dcs < 1:
            raise ValueError("hosts must attach to at least one data center")
        self.datacenters: dict[str, FleetDataCenter] = {dc.name: dc for dc in datacenters}
        if len(self.datacenters) != len(datacenters):
            raise ValueError("duplicate data-center names")
        self.backbone_mbps = backbone_mbps
        self.access_mbps = access_mbps
        self.access_delay_ms = access_delay_ms
        self.alpha = alpha
        self.attach_dcs = min(attach_dcs, len(self.datacenters))
        dc_names = tuple(sorted(self.datacenters))
        self._geometry = (
            _os3e_geometry(dc_names, self.attach_dcs, access_delay_ms)
            if latency_ms is None
            else OverlayGeometry(
                {a: dict(row) for a, row in latency_ms.items()}, dc_names, self.attach_dcs, access_delay_ms
            )
        )
        #: Shared with every manager of the same geometry, hence read-only.
        self.wan: Mapping[str, Mapping[str, float]] = self._geometry.wan
        missing = [name for name in dc_names if name not in self.wan]
        if missing:
            raise ValueError(f"data centers absent from the WAN latency map: {missing}")
        self.source_out_mbps = source_out_mbps
        self.receiver_in_mbps = receiver_in_mbps
        self.mode = mode
        self.bus = bus

        self.shared_edges: frozenset[Edge] = frozenset(
            (a, b) for a in dc_names for b in dc_names if a != b
        )
        edge_caps = {edge: backbone_mbps for edge in self.shared_edges}
        self.index = SurplusIndex(edge_caps, self.datacenters)
        self._dc_name_set: frozenset[str] = frozenset(dc_names)

        self.sessions: dict[int, SessionSpec] = {}
        self.plans: dict[int, FleetPlan] = {}
        # Per-PoP forwarding table as a sorted list of route lines, kept in
        # step with ``plans`` by _install/_remove: a config push joins one
        # PoP's lines instead of rescanning every live plan.
        self._routes: dict[str, list[str]] = {}
        self._lps: dict[int, SessionLP] = {}
        #: Shared with whoever passed it in; the cold oracle never touches it.
        self.basis_memory: BasisMemory = {} if basis_memory is None else basis_memory
        self.config_epoch = 0
        # Shard-lease fence stamped onto config pushes (DESIGN.md §14).
        # 0 for an unsharded fleet; a shard takeover installs the new
        # lease generation via adopt_state so the successor's very first
        # push dominates anything the deposed primary still sends.
        self.config_fence = 0
        self.lp_solves = 0
        self.warm_hits = 0

    # -- overlay geometry --------------------------------------------------

    def attachments(self, city: str) -> tuple[str, ...]:
        """The ``attach_dcs`` nearest PoP data centers to a host city."""
        return self._geometry.attachments(city)

    def _candidate_paths(self, spec: SessionSpec) -> dict[str, list[Path]]:
        """src→a(→b)→recv overlay paths within the session's delay bound."""
        source = spec.source_host()
        return {
            host: [
                Path(nodes=(source, *relays, host), delay_ms=delay)
                for relays, delay in self._geometry.routes(spec.source_city, city)
                if delay <= spec.max_delay_ms
            ]
            for host, city in zip(spec.receiver_hosts(), spec.receiver_cities)
        }

    # -- Alg. 3 at fleet scale ---------------------------------------------

    def admit(self, spec: SessionSpec) -> AdmissionVerdict:
        """Session join: one delta LP solve, or zero for infeasible asks."""
        if spec.session_id in self.sessions:
            raise ValueError(f"session {spec.session_id} is already admitted")
        if self.mode == COLD:
            self.index.rebuild(self.plans.values())
        unknown = [city for city in (spec.source_city, *spec.receiver_cities) if city not in self.wan]
        path_sets = {} if unknown else self._candidate_paths(spec)
        if unknown or any(not paths for paths in path_sets.values()):
            return AdmissionVerdict(
                session_id=spec.session_id,
                status=AdmissionStatus.REJECTED_INFEASIBLE,
                lambda_mbps=0.0,
                requested_mbps=spec.rate_mbps,
                lp_solves=0,
                warm_started=False,
                vnfs_launched=0,
                epoch=self.config_epoch,
                reason=f"unknown city {unknown[0]!r}" if unknown else "no route within the delay bound",
            )
        lp = self._new_lp(spec, path_sets)
        result, plan = self._solve(lp)
        if plan is None or plan.lambda_mbps < spec.rate_mbps - _RATE_TOL:
            achieved = 0.0 if plan is None else plan.lambda_mbps
            return AdmissionVerdict(
                session_id=spec.session_id,
                status=AdmissionStatus.REJECTED_CAPACITY,
                lambda_mbps=achieved,
                requested_mbps=spec.rate_mbps,
                lp_solves=1,
                warm_started=result.warm_started,
                vnfs_launched=0,
                epoch=self.config_epoch,
                reason=(
                    _solver_fault(result)
                    if plan is None
                    else f"residual capacity carries {achieved:.3f}/{spec.rate_mbps:.3f} Mbps"
                ),
            )
        self.sessions[spec.session_id] = spec
        self._lps[spec.session_id] = lp
        launched = self._apply(plan)
        return AdmissionVerdict(
            session_id=spec.session_id,
            status=AdmissionStatus.ADMITTED,
            lambda_mbps=plan.lambda_mbps,
            requested_mbps=spec.rate_mbps,
            lp_solves=1,
            warm_started=result.warm_started,
            vnfs_launched=launched,
            epoch=self.config_epoch,
        )

    def depart(self, session_id: int) -> FleetPlan | None:
        """Session leave: release capacity, retire surplus VNFs, 0 solves."""
        plan = self._remove(session_id)
        if plan is None:
            return None  # never admitted (rejected join) — nothing to undo
        self.sessions.pop(session_id, None)
        self._lps.pop(session_id, None)
        if self.mode == COLD:
            self.index.rebuild(self.plans.values())
        else:
            self.index.release(plan)
        self._retire_surplus(plan.datacenters(self._dc_name_set))
        self.config_epoch += 1
        return plan

    def replan_session(self, session_id: int) -> AdmissionVerdict:
        """Re-route one live session (the p99 replan-latency unit of work).

        Releases the session's capacity, re-solves its delta LP against
        the refreshed surplus, and applies the new routing — rolling
        back to the old plan if the re-solve cannot carry the rate.
        """
        spec = self.sessions.get(session_id)
        old = self.plans.get(session_id)
        if spec is None or old is None:
            raise KeyError(f"session {session_id} is not admitted")
        lp = self._lp_for(session_id)
        old_dcs = old.datacenters(self._dc_name_set)
        if self.mode == COLD:
            remaining = [p for sid, p in self.plans.items() if sid != session_id]
            self.index.rebuild(remaining)
        else:
            self.index.release(old)
        # Retire the released capacity's VNF surplus so the re-solve pays
        # α for what it reclaims — identical accounting to a fresh join.
        self._retire_surplus(old_dcs)
        self._remove(session_id)
        result, plan = self._solve(lp)
        if plan is None or plan.lambda_mbps < spec.rate_mbps - _RATE_TOL:
            # Rollback: the old routing is known-feasible.
            self._install(old)
            self.index.apply(old)
            self._grow_vnfs(old_dcs)
            why = "replan infeasible" if plan is not None else _solver_fault(result)
            return AdmissionVerdict(
                session_id=session_id,
                status=AdmissionStatus.REJECTED_CAPACITY,
                lambda_mbps=0.0 if plan is None else plan.lambda_mbps,
                requested_mbps=spec.rate_mbps,
                lp_solves=1,
                warm_started=result.warm_started,
                vnfs_launched=0,
                epoch=self.config_epoch,
                reason=f"{why}; previous routing kept",
            )
        launched = self._apply(plan)
        return AdmissionVerdict(
            session_id=session_id,
            status=AdmissionStatus.ADMITTED,
            lambda_mbps=plan.lambda_mbps,
            requested_mbps=spec.rate_mbps,
            lp_solves=1,
            warm_started=result.warm_started,
            vnfs_launched=launched,
            epoch=self.config_epoch,
        )

    # -- warm-standby adoption ---------------------------------------------

    def adopt_state(
        self,
        sessions: Mapping[int, SessionSpec],
        plans: Mapping[int, FleetPlan],
        *,
        config_epoch: int = 0,
        fence: int = 0,
    ) -> None:
        """Install replicated session state into a fresh manager.

        A shard standby that wins the takeover lease materializes its
        manager from the replication log: the admitted specs and their
        immutable plans.  The surplus index is rebuilt from the plans
        (the exact state the deposed primary's incremental bookkeeping
        tracked), the config epoch resumes at the replicated high-water
        mark, and ``fence`` becomes the new lease generation — so the
        first post-takeover push outranks every deposed-primary config.
        Per-session LPs are *not* replicated; :meth:`_lp_for` rebuilds
        them lazily on the first replan that needs one.
        """
        if self.sessions or self.plans:
            raise ValueError("adopt_state requires a freshly constructed manager")
        self.sessions = dict(sessions)
        for plan in plans.values():
            self._install(plan)
        self.index.rebuild(self.plans.values())
        self.config_epoch = max(self.config_epoch, config_epoch)
        self.config_fence = fence

    def forget_sessions(self) -> None:
        """Become a husk: the process this manager modelled is gone for good.

        Everything per-session goes (specs, plans, routes, LPs, the index's
        load); identity, ``lp_solves``/``warm_hits``, the config stamp and
        the basis memory stay, so ledgers that sum over deposed managers
        still add up.  A husk's ``republish_config`` pushes nothing.
        """
        self.sessions, self.plans, self._routes, self._lps = {}, {}, {}, {}
        self.index.rebuild(())

    # -- internals ---------------------------------------------------------

    def _lp_for(self, session_id: int) -> SessionLP:
        """The session's delta LP, rebuilt from its spec if not cached.

        An adopted session has no LP object (solver state is process
        state and died with the deposed primary); rebuilding it from the
        spec is pure — same paths, same constraints — so replans after a
        takeover are bit-identical to replans before it.
        """
        lp = self._lps.get(session_id)
        if lp is None:
            spec = self.sessions[session_id]
            lp = self._lps[session_id] = self._new_lp(spec, self._candidate_paths(spec))
        return lp

    def _new_lp(self, spec: SessionSpec, path_sets: Mapping[str, Sequence[Path]]) -> SessionLP:
        """A session's delta LP; the cold oracle compiles it without the shape memo."""
        build = ColdSessionLP if self.mode == COLD else SessionLP
        return build(
            spec,
            path_sets,
            self.shared_edges,
            self.datacenters,
            access_mbps=self.access_mbps,
            source_out_mbps=self.source_out_mbps,
            receiver_in_mbps=self.receiver_in_mbps,
            alpha=self.alpha,
        )

    def _install(self, plan: FleetPlan) -> None:
        """Make a plan live: store it and index its routes per PoP."""
        self.plans[plan.session_id] = plan
        for dc, lines in plan.routes().items():
            table = self._routes.setdefault(dc, [])
            for line in lines:
                insort(table, line)

    def _remove(self, session_id: int) -> FleetPlan | None:
        """Drop a live plan and its routes; None if the session has none."""
        plan = self.plans.pop(session_id, None)
        if plan is not None:
            for dc, lines in plan.routes().items():
                table = self._routes[dc]
                for line in lines:
                    del table[bisect_left(table, line)]
        return plan

    def _solve(self, lp: SessionLP) -> tuple[SimplexResult, FleetPlan | None]:
        remember = self.mode == INCREMENTAL
        bases = self.basis_memory.setdefault(lp.signature, []) if remember else []
        result, plan = lp.solve(self.index, bases)
        self.lp_solves += 1
        if result.warm_started:
            self.warm_hits += 1
        if remember and result.basis is not None:  # most recent first, KEPT_BASES of them
            if result.basis in bases:
                bases.remove(result.basis)
            bases.insert(0, result.basis)
            del bases[KEPT_BASES:]
        return result, plan

    def _grow_vnfs(self, datacenters: tuple[str, ...]) -> int:
        """Scale touched DCs up to their load's requirement (NC_VNF_START)."""
        launched = 0
        for dc in datacenters:
            required = self.index.required_vnfs(dc)
            current = self.index.vnfs.get(dc, 0)
            if required > current:
                launched += required - current
                self.index.vnfs[dc] = required
                if self.bus is not None:
                    self.bus.send(NcVnfStart(target=dc, datacenter=dc, count=required - current))
        return launched

    def _retire_surplus(self, datacenters: tuple[str, ...]) -> int:
        """Scale touched DCs down to their load's requirement (NC_VNF_END)."""
        retired = 0
        for dc in datacenters:
            current = self.index.vnfs.get(dc, 0)
            required = self.index.required_vnfs(dc)
            if required < current:
                retired += current - required
                if required > 0:
                    self.index.vnfs[dc] = required
                else:
                    self.index.vnfs.pop(dc, None)
                if self.bus is not None:
                    for i in range(required, current):
                        self.bus.send(NcVnfEnd(target=dc, vnf_name=f"{dc}#{i}"))
        return retired

    def _apply(self, plan: FleetPlan) -> int:
        """Charge an accepted plan to the index; scale VNFs; push config."""
        self._install(plan)
        self.index.apply(plan)
        touched = plan.datacenters(self._dc_name_set)
        launched = self._grow_vnfs(touched)
        self.config_epoch += 1
        self._push_config(plan, touched)
        return launched

    def _push_config(self, plan: FleetPlan, touched: tuple[str, ...]) -> None:
        bus = self.bus
        if bus is None:
            return
        spec = self.sessions[plan.session_id]
        for dc in touched:
            self._send_pop_config(bus, dc, (plan.session_id,))
        bus.send(NcStart(target=spec.source_host(), session_id=plan.session_id))

    def _send_pop_config(self, bus: SignalPort, dc: str, session_ids: tuple[int, ...]) -> None:
        """One PoP's settings + table under the current ``(fence, epoch)``."""
        bus.send(
            NcSettings(
                target=dc,
                session_ids=session_ids,
                roles=tuple((sid, "coder") for sid in session_ids),
                epoch=self.config_epoch,
                fence=self.config_fence,
            )
        )
        bus.send(
            NcForwardTab(
                target=dc,
                table_text=self.forwarding_table(dc),
                epoch=self.config_epoch,
                fence=self.config_fence,
            )
        )

    def republish_config(self) -> int:
        """Re-push every touched PoP's settings + table at the current stamp.

        The takeover fan-out: a shard's new primary bumps the epoch
        under its fresh fence and broadcasts the authoritative state
        once, so every daemon converges on the successor's view no
        matter what the deposed primary managed to deliver first.
        Returns the number of PoPs refreshed.
        """
        bus = self.bus
        if bus is None:
            return 0
        self.config_epoch += 1
        touched_by_dc: dict[str, list[int]] = {}
        for sid in sorted(self.plans):
            for dc in self.plans[sid].datacenters(self._dc_name_set):
                touched_by_dc.setdefault(dc, []).append(sid)
        for dc in sorted(touched_by_dc):
            self._send_pop_config(bus, dc, tuple(touched_by_dc[dc]))
        return len(touched_by_dc)

    # -- fleet views -------------------------------------------------------

    def forwarding_table(self, dc: str) -> str:
        """Deterministic text table of the routes crossing one PoP."""
        return "\n".join(self._routes.get(dc, ()))

    def forwarding_tables(self) -> dict[str, str]:
        """Per-PoP tables; the equivalence property compares these."""
        return {dc: self.forwarding_table(dc) for dc in sorted(self.datacenters)}

    @property
    def active_sessions(self) -> int:
        return len(self.plans)

    @property
    def total_throughput_mbps(self) -> float:
        return sum(plan.lambda_mbps for plan in self.plans.values())

    # -- whole-fleet resolve (the expensive baseline) ----------------------

    def fleet_graph(self) -> nx.DiGraph:
        """The full overlay as a DiGraph problem (2) can consume."""
        g = nx.DiGraph()
        dc_names = sorted(self.datacenters)
        g.add_nodes_from(dc_names)
        for a, b in sorted(self.shared_edges):
            g.add_edge(a, b, capacity_mbps=self.backbone_mbps, delay_ms=self.wan[a][b])
        for sid in sorted(self.sessions):
            spec = self.sessions[sid]
            source = spec.source_host()
            for dc in self.attachments(spec.source_city):
                g.add_edge(
                    source,
                    dc,
                    capacity_mbps=self.access_mbps,
                    delay_ms=self.wan[spec.source_city][dc] + self.access_delay_ms,
                )
            for host, city in zip(spec.receiver_hosts(), spec.receiver_cities):
                for dc in self.attachments(city):
                    g.add_edge(
                        dc,
                        host,
                        capacity_mbps=self.access_mbps,
                        delay_ms=self.wan[dc][city] + self.access_delay_ms,
                    )
        return g

    def whole_fleet_resolve(self) -> DeploymentPlan:
        """Solve problem (2) over every live session at once.

        This is the paper's per-event behaviour and the benchmark's
        cold baseline: cost grows with the whole fleet, not the delta.
        """
        graph = self.fleet_graph()
        specs = [
            DataCenterSpec(
                name=dc.name,
                inbound_mbps=dc.inbound_mbps,
                outbound_mbps=dc.outbound_mbps,
                coding_mbps=dc.coding_mbps,
            )
            for dc in (self.datacenters[name] for name in sorted(self.datacenters))
        ]
        problem = DeploymentProblem(
            graph,
            specs,
            alpha=self.alpha,
            source_outbound_mbps=self.source_out_mbps,
            receiver_inbound_mbps=self.receiver_in_mbps,
            max_vnfs_per_dc=max(dc.max_vnfs for dc in self.datacenters.values()),
        )
        demands: list[SessionDemand] = []
        for sid in sorted(self.sessions):
            spec = self.sessions[sid]
            session = MulticastSession(
                source=spec.source_host(),
                receivers=list(spec.receiver_hosts()),
                max_delay_ms=spec.max_delay_ms,
                fixed_rate_mbps=spec.rate_mbps,
                session_id=sid,
            )
            demands.append(problem.build_demand(session, max_hops=3))
        self.lp_solves += 1
        return problem.solve(demands)


def fleet_of(
    cities: Iterable[str],
    *,
    inbound_mbps: float = 1_000.0,
    outbound_mbps: float = 1_000.0,
    coding_mbps: float = 900.0,
    max_vnfs: int = 64,
) -> list[FleetDataCenter]:
    """Convenience: one uniform data center per PoP city."""
    return [
        FleetDataCenter(
            name=city,
            inbound_mbps=inbound_mbps,
            outbound_mbps=outbound_mbps,
            coding_mbps=coding_mbps,
            max_vnfs=max_vnfs,
        )
        for city in cities
    ]
