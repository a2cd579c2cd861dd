"""The central controller (paper §III-A, §IV).

The controller is the brain of the system: it keeps the network view
(the graph of sources, receivers and data centers with measured
bandwidth/delay), computes coding-function deployment and multicast
routing by solving problem (2), launches and retires VMs through the
cloud provider APIs, and configures daemons over the signal bus
(NC_SETTINGS for roles/ports/coding parameters, NC_FORWARD_TAB for
routing, NC_VNF_END with the τ grace for retirement).

State per session: the achieved rate λ_m and the routed
:class:`~repro.routing.conceptual.FlowDecomposition`.  The global VNF
requirement per data center is recomputed from the union of all routed
flows (the exact aggregate form of constraints (2c)–(2e)), and
:meth:`reconcile_fleet` drives the VM fleet toward it — reusing VMs in
their τ grace window before launching new ones, which is what makes
scale-out cheap in Fig. 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import networkx as nx

from repro.cloud.provider import CloudProvider
from repro.core.deployment import DataCenterSpec, DeploymentPlan, DeploymentProblem
from repro.core.forwarding import ForwardingTable
from repro.core.session import MulticastSession
from repro.core.signals import (
    NcForwardTab,
    NcHeartbeat,
    NcStart,
    NcVnfEnd,
    NcVnfStart,
    Signal,
    SignalBus,
)
from repro.net.events import EventScheduler, PeriodicEvent
from repro.routing.conceptual import FlowDecomposition


@dataclass
class FleetState:
    """VM bookkeeping for one data center."""

    target: int = 0
    vms: list = dataclass_field(default_factory=list)

    def usable(self) -> list:
        return [vm for vm in self.vms if vm.is_usable]

    def stopping(self) -> list:
        return [vm for vm in self.vms if vm.state.value == "stopping"]

    def running_or_pending(self) -> list:
        return [vm for vm in self.vms if vm.state.value in ("running", "pending")]

    def failed(self) -> list:
        return [vm for vm in self.vms if vm.state.value == "failed"]


class HeartbeatMonitor:
    """Failure detector: a watched name missing ``miss_threshold``
    consecutive heartbeat intervals is declared dead.

    The monitor only *counts*; feeding it (``beat``) and reacting to
    deaths (``on_dead``) are the controller's job.  Checks run on the
    shared event scheduler so detection latency is deterministic.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        interval_s: float = 1.0,
        miss_threshold: int = 3,
        on_dead=None,
    ):
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss threshold must be at least 1")
        self.scheduler = scheduler
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self.on_dead = on_dead
        self.last_heard: dict[str, float] = {}
        self.dead: dict[str, float] = {}  # name -> declared-dead time
        self._ticker: PeriodicEvent | None = scheduler.schedule_every(interval_s, self._check)

    def watch(self, name: str) -> None:
        """Start (or restart) expecting heartbeats from ``name``.

        The grace period starts *now* even if the name was watched
        before: re-adopting a restarted daemon must not inherit the
        stale last-heard time that got it declared dead.
        """
        self.last_heard[name] = self.scheduler.now
        self.dead.pop(name, None)

    def unwatch(self, name: str) -> None:
        """Stop expecting heartbeats (planned shutdown, not a failure)."""
        self.last_heard.pop(name, None)
        self.dead.pop(name, None)

    def beat(self, name: str) -> None:
        if name in self.last_heard:
            self.last_heard[name] = self.scheduler.now

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None

    def _check(self) -> None:
        now = self.scheduler.now
        deadline = self.miss_threshold * self.interval_s
        for name, heard in list(self.last_heard.items()):
            if name in self.dead:
                continue
            if now - heard > deadline + 1e-9:
                self.dead[name] = now
                if self.on_dead is not None:
                    self.on_dead(name)


class Controller:
    """Global controller for coding-function deployment and routing."""

    def __init__(
        self,
        graph: nx.DiGraph,
        datacenters: list,
        scheduler: EventScheduler,
        alpha: float = 20.0,
        providers: dict | None = None,
        grace_tau_s: float = 600.0,
        source_outbound_mbps: float = 1000.0,
        receiver_inbound_mbps: float = 1000.0,
    ):
        self.graph = graph
        self.datacenters: dict[str, DataCenterSpec] = {dc.name: dc for dc in datacenters}
        self.scheduler = scheduler
        self.alpha = alpha
        self.bus = SignalBus(scheduler)
        self.providers = dict(providers or {})  # dc name -> CloudProvider
        self.grace_tau_s = grace_tau_s
        self.source_outbound_mbps = source_outbound_mbps
        self.receiver_inbound_mbps = receiver_inbound_mbps

        self.sessions: dict[int, MulticastSession] = {}
        self.lambdas: dict[int, float] = {}
        self.decompositions: dict[int, FlowDecomposition] = {}
        # Demand footprint per session: every node and edge any of its
        # candidate paths could touch.  A departure whose freed capacity
        # is disjoint from all remaining footprints cannot change any
        # remaining session's optimum, so the g1/g2 rebalance is skipped
        # outright (0 LP solves instead of 2 whole-fleet ones).
        self._demand_footprints: dict[int, frozenset] = {}
        self.fleet: dict[str, FleetState] = {name: FleetState() for name in self.datacenters}
        self.solves = 0
        # Monotonic config epoch, bumped on every stored plan and
        # stamped onto NC_FORWARD_TAB/NC_SETTINGS so daemons can reject
        # deliveries delayed from before a later replan (DESIGN.md §11).
        self.config_epoch = 0

        # Failure handling (opt-in via enable_failure_detection).
        self.monitor: HeartbeatMonitor | None = None
        self.disabled_datacenters: set[str] = set()
        self.on_vnf_failure: list = []  # callbacks fn(vnf_name, datacenter)
        self.failures: list[dict] = []  # audit log of handled failures
        self._watched_vnfs: dict[str, tuple] = {}  # name -> (datacenter, vm | None)

    # -- problem construction ------------------------------------------------

    def problem(self, alpha: float | None = None) -> DeploymentProblem:
        """A fresh :class:`DeploymentProblem` over the current graph.

        Data centers quarantined by the failure handler are *excised*
        from the topology view — node and touching links, not merely
        dropped from the candidate list — so the feasible-path DFS
        cannot route data plane flows through a dead site as a plain
        relay hop.
        """
        graph = self.graph
        if self.disabled_datacenters:
            graph = nx.restricted_view(self.graph, tuple(self.disabled_datacenters), ())
        usable_dcs = [
            dc for name, dc in self.datacenters.items() if name not in self.disabled_datacenters
        ]
        return DeploymentProblem(
            graph,
            usable_dcs,
            alpha=self.alpha if alpha is None else alpha,
            source_outbound_mbps=self.source_outbound_mbps,
            receiver_inbound_mbps=self.receiver_inbound_mbps,
        )

    def _plan_of(self, session_ids) -> list:
        """Existing per-session plans (for freezing) for the given ids."""
        plans = []
        for sid in session_ids:
            decomposition = self.decompositions.get(sid)
            if decomposition is None:
                continue
            plans.append(
                DeploymentPlan(
                    lambdas={sid: self.lambdas.get(sid, 0.0)},
                    decompositions={sid: decomposition},
                    alpha=self.alpha,
                )
            )
        return plans

    def _store(self, plan: DeploymentPlan) -> None:
        self.lambdas.update(plan.lambdas)
        self.decompositions.update(plan.decompositions)
        self.solves += 1
        self.config_epoch += 1

    @staticmethod
    def _footprint_of(demand) -> frozenset:
        """Nodes ∪ edges any candidate path of a demand could occupy."""
        items: set = set()
        for paths in demand.path_sets.values():
            for path in paths:
                items.update(path.nodes)
                items.update(path.edges)
        return frozenset(items)

    def _routed_footprint(self, session_id: int) -> frozenset:
        """Nodes ∪ edges a session's *current* routing actually loads."""
        decomposition = self.decompositions.get(session_id)
        if decomposition is None:
            return frozenset()
        items: set = set()
        for edge, rate in decomposition.link_rates().items():
            if rate > 1e-9:
                items.add(edge)
                items.update(edge)
        return frozenset(items)

    # -- session lifecycle (entry points used by the scaling engine) -----------

    def add_session(self, session: MulticastSession, reconcile: bool = True) -> DeploymentPlan:
        """SESSION JOIN: route the new session over surplus + new capacity."""
        if session.session_id in self.sessions:
            raise ValueError(f"session {session.session_id} already registered")
        self.sessions[session.session_id] = session
        problem = self.problem()
        demand = problem.build_demand(session)
        self._demand_footprints[session.session_id] = self._footprint_of(demand)
        frozen = self._plan_of(sid for sid in self.sessions if sid != session.session_id)
        plan = problem.solve([demand], frozen=frozen, baseline_vnfs=self.current_vnf_counts())
        self._store(plan)
        if reconcile:
            self.reconcile_fleet()
        self.bus.send(NcStart(target=session.source, session_id=session.session_id))
        return plan

    def remove_session(self, session_id: int) -> dict:
        """SESSION QUIT: compare growing flows (g1) vs shrinking fleet (g2).

        When the departing session's routed footprint is disjoint from
        every remaining session's demand footprint, the freed capacity
        is unreachable by anyone else: g1 would reproduce the current
        flows and g2 the current fleet, so both solves are skipped and
        the fleet is reconciled directly (``rebalanced: False``).
        """
        if session_id not in self.sessions:
            raise ValueError(f"unknown session {session_id}")
        freed = self._routed_footprint(session_id)
        del self.sessions[session_id]
        self.lambdas.pop(session_id, None)
        self.decompositions.pop(session_id, None)
        self._demand_footprints.pop(session_id, None)
        return self._rebalance_after_departure(freed=freed)

    def add_receiver(self, session_id: int, receiver: str) -> DeploymentPlan:
        """RECEIVER JOIN: re-route the affected session only."""
        session = self._session(session_id)
        session.add_receiver(receiver)
        return self._resolve_sessions([session_id])

    def remove_receiver(self, session_id: int, receiver: str) -> dict:
        """RECEIVER QUIT: like session quit, scoped to one session.

        The departure rebalance (Alg. 3) already re-solves every
        remaining session under both the g1 and g2 policies, so there is
        no separate per-session re-solve first — doing one would burn an
        extra LP and reconcile the fleet against a plan that is
        immediately replaced.
        """
        session = self._session(session_id)
        session.remove_receiver(receiver)
        return self._rebalance_after_departure()

    def _session(self, session_id: int) -> MulticastSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown session {session_id}") from None

    # -- re-solve primitives ------------------------------------------------------

    def _resolve_sessions(self, session_ids: list, reconcile: bool = True) -> DeploymentPlan:
        """Re-route the given sessions; everything else stays frozen."""
        problem = self.problem()
        demands = [problem.build_demand(self.sessions[sid]) for sid in session_ids]
        for sid, demand in zip(session_ids, demands):
            self._demand_footprints[sid] = self._footprint_of(demand)
        frozen = self._plan_of(sid for sid in self.sessions if sid not in set(session_ids))
        plan = problem.solve(demands, frozen=frozen, baseline_vnfs=self.current_vnf_counts())
        self._store(plan)
        if reconcile:
            self.reconcile_fleet()
        return plan

    def resolve_all(self, reconcile: bool = True) -> DeploymentPlan:
        """Full re-optimization of every session (initial deployment)."""
        problem = self.problem()
        demands = [problem.build_demand(s) for s in self.sessions.values()]
        for sid, demand in zip(self.sessions, demands):
            self._demand_footprints[sid] = self._footprint_of(demand)
        plan = problem.solve(demands, baseline_vnfs=self.current_vnf_counts())
        self._store(plan)
        if reconcile:
            self.reconcile_fleet()
        return plan

    def _rebalance_after_departure(self, freed: frozenset | None = None) -> dict:
        """Alg. 3 SESSION/RECEIVER QUIT: pick max(g1 grow-flows, g2 shrink-fleet).

        With ``freed`` given (a session quit's routed footprint), the
        O(1) fast path fires when no remaining session's demand
        footprint intersects it — nobody can grow into the freed
        capacity, so neither g1 nor g2 can beat the incumbent plans.
        """
        remaining = list(self.sessions)
        if freed is not None and not any(
            freed & self._demand_footprints.get(sid, frozenset()) for sid in remaining
        ):
            self.reconcile_fleet()
            return {"g1": 0.0, "g2": 0.0, "chosen": "g1", "rebalanced": False}
        current_counts = self.current_vnf_counts()
        g1_plan = g2_plan = None
        if remaining:
            problem = self.problem()
            demands = [problem.build_demand(self.sessions[sid]) for sid in remaining]
            # g1: keep the VNF deployment, let the flows grow into freed capacity.
            g1_plan = problem.solve(demands, fixed_vnfs=current_counts)
            # g2: keep current flow rates, retire VNFs no longer needed.
            fixed_sessions = []
            for sid in remaining:
                session = self.sessions[sid]
                rate = self.lambdas.get(sid, 0.0)
                fixed_sessions.append(
                    MulticastSession(
                        source=session.source,
                        receivers=list(session.receivers),
                        max_delay_ms=session.max_delay_ms,
                        fixed_rate_mbps=max(rate, 1e-3),
                        coding=session.coding,
                        session_id=session.session_id,
                    )
                )
            g2_demands = [problem.build_demand(s) for s in fixed_sessions]
            g2_plan = problem.solve(g2_demands)
        g1 = self._objective_of(g1_plan)
        g2 = self._objective_of(g2_plan)
        chosen = g1_plan if g1 >= g2 else g2_plan
        if chosen is not None:
            self._store(chosen)
        self.reconcile_fleet()
        return {"g1": g1, "g2": g2, "chosen": "g1" if g1 >= g2 else "g2", "rebalanced": True}

    def _objective_of(self, plan: DeploymentPlan | None) -> float:
        if plan is None:
            return 0.0
        return plan.total_throughput_mbps - self.alpha * sum(self._required_counts(plan).values())

    # -- VNF requirement & fleet reconciliation -------------------------------------

    def _required_counts(self, plan: DeploymentPlan | None = None) -> dict:
        """Minimum VNFs per data center for the given (default: live) flows."""
        decompositions = (
            plan.decompositions.values() if plan is not None else self.decompositions.values()
        )
        load: dict = {}
        for decomposition in decompositions:
            for edge, rate in decomposition.link_rates().items():
                load[edge] = load.get(edge, 0.0) + rate
        counts = {}
        for name, dc in self.datacenters.items():
            inflow = sum(rate for edge, rate in load.items() if edge[1] == name)
            outflow = sum(rate for edge, rate in load.items() if edge[0] == name)
            counts[name] = max(
                math.ceil(inflow / min(dc.inbound_mbps, dc.coding_mbps) - 1e-9),
                math.ceil(outflow / dc.outbound_mbps - 1e-9),
                0,
            )
        return counts

    def required_vnf_counts(self) -> dict:
        """Per-DC VNF requirement implied by all currently routed flows."""
        return self._required_counts()

    def current_vnf_counts(self) -> dict:
        """Per-DC usable VMs (running, pending, or inside the τ grace)."""
        return {
            name: len(state.usable()) + len([vm for vm in state.vms if vm.state.value == "pending"])
            for name, state in self.fleet.items()
        }

    def total_vnfs(self) -> int:
        return sum(self.current_vnf_counts().values())

    def total_throughput_mbps(self) -> float:
        """Planned throughput: Σ_m λ_m of the current routing solution."""
        return sum(self.lambdas.values())

    def running_vnf_counts(self) -> dict:
        """VMs actually able to carry traffic (RUNNING, not booting)."""
        out = {}
        for name, state in self.fleet.items():
            if state.vms:
                out[name] = len([vm for vm in state.vms if vm.state.value in ("running", "stopping")])
            else:
                # No provider-backed fleet (pure planning mode): assume
                # the requirement is met instantly.
                out[name] = self.required_vnf_counts().get(name, 0)
        return out

    def achieved_throughputs(self, actual_caps: dict | None = None) -> dict:
        """Ground-truth per-session rates under the *real* capacities.

        Between an environment change (a bandwidth cut, a VM still
        booting) and the controller's reaction, the routed flows exceed
        what the data plane can carry; the delivered rate of a session
        scales by the worst over-subscription among the data centers it
        traverses.  ``actual_caps`` maps dc name -> (B_in, B_out) ground
        truth; defaults to the controller's current belief.
        """
        load: dict = {}
        for decomposition in self.decompositions.values():
            for edge, rate in decomposition.link_rates().items():
                load[edge] = load.get(edge, 0.0) + rate
        running = self.running_vnf_counts()
        factor: dict = {}
        for name, dc in self.datacenters.items():
            caps = (actual_caps or {}).get(name, (dc.inbound_mbps, dc.outbound_mbps))
            vnfs = running.get(name, 0)
            inflow = sum(rate for edge, rate in load.items() if edge[1] == name)
            outflow = sum(rate for edge, rate in load.items() if edge[0] == name)
            in_capacity = min(caps[0], dc.coding_mbps) * vnfs
            out_capacity = caps[1] * vnfs
            factor[(name, "in")] = 1.0 if inflow <= 1e-9 else min(1.0, in_capacity / inflow)
            factor[(name, "out")] = 1.0 if outflow <= 1e-9 else min(1.0, out_capacity / outflow)
        achieved = {}
        for sid, decomposition in self.decompositions.items():
            worst = 1.0
            for (u, v), rate in decomposition.link_rates().items():
                if rate <= 1e-9:
                    continue
                if v in self.datacenters:
                    worst = min(worst, factor[(v, "in")])
                if u in self.datacenters:
                    worst = min(worst, factor[(u, "out")])
            achieved[sid] = self.lambdas.get(sid, 0.0) * worst
        return achieved

    def achieved_total_throughput_mbps(self, actual_caps: dict | None = None) -> float:
        return sum(self.achieved_throughputs(actual_caps).values())

    def reconcile_fleet(self) -> dict:
        """Drive the VM fleet toward the current requirement.

        Scale-out prefers reusing VMs inside their τ grace window (free
        and instant) before calling the provider API; scale-in sends
        NC_VNF_END, which opens the τ window rather than killing the VM.
        Returns a summary of actions taken.
        """
        required = self.required_vnf_counts()
        actions = {"launched": 0, "reused": 0, "retired": 0}
        for name, state in self.fleet.items():
            state.target = required.get(name, 0)
            active = [vm for vm in state.vms if vm.state.value in ("running", "pending")]
            deficit = state.target - len(active)
            if deficit > 0:
                # Reuse τ-grace VMs first.
                for vm in state.stopping():
                    if deficit == 0:
                        break
                    vm.reuse()
                    actions["reused"] += 1
                    deficit -= 1
                if deficit > 0:
                    self.bus.send(NcVnfStart(target="controller", datacenter=name, count=deficit))
                    provider = self.providers.get(name)
                    for _ in range(deficit):
                        if provider is not None:
                            vm = provider.launch_vm(name, grace_tau_s=self.grace_tau_s)
                            state.vms.append(vm)
                        actions["launched"] += 1
            elif deficit < 0:
                for vm in active[deficit:]:  # retire the newest surplus VMs
                    self.bus.send(NcVnfEnd(target=f"{name}/{vm.vm_id}", vnf_name=vm.vm_id, tau_s=self.grace_tau_s))
                    vm.request_shutdown()
                    actions["retired"] += 1
        return actions

    # -- forwarding tables --------------------------------------------------------------

    def forwarding_tables(self) -> dict:
        """Per-node forwarding tables derived from all routed flows.

        Node u forwards session m to every v with f_m((u, v)) > 0.
        """
        tables: dict[str, ForwardingTable] = {}
        for sid, decomposition in self.decompositions.items():
            for (u, v), rate in decomposition.link_rates().items():
                if rate <= 1e-9:
                    continue
                table = tables.setdefault(u, ForwardingTable())
                hops = table.next_hops(sid)
                if v not in hops:
                    hops.append(v)
                    table.set_next_hops(sid, hops)
        return tables

    def push_forwarding_tables(self) -> int:
        """Send NC_FORWARD_TAB to every node with a table; returns count."""
        tables = self.forwarding_tables()
        for node, table in tables.items():
            self.bus.send(
                NcForwardTab(target=node, table_text=table.serialize(), epoch=self.config_epoch)
            )
        return len(tables)

    # -- measurement ingestion (graph updates) ------------------------------------------

    def observe_link(self, edge: tuple, bandwidth_mbps: float | None = None, delay_ms: float | None = None) -> None:
        """Apply a measurement sample to the network view."""
        if edge not in self.graph.edges:
            raise KeyError(f"unknown link {edge}")
        if bandwidth_mbps is not None:
            self.graph.edges[edge]["capacity_mbps"] = bandwidth_mbps
        if delay_ms is not None:
            self.graph.edges[edge]["delay_ms"] = delay_ms

    def observe_datacenter_caps(self, name: str, inbound_mbps: float | None = None, outbound_mbps: float | None = None) -> None:
        """Apply measured per-VNF bandwidth caps (B_in, B_out)."""
        dc = self.datacenters.get(name)
        if dc is None:
            raise KeyError(f"unknown data center {name}")
        if inbound_mbps is not None:
            dc.inbound_mbps = inbound_mbps
        if outbound_mbps is not None:
            dc.outbound_mbps = outbound_mbps

    # -- failure detection & recovery (heartbeat loop) -----------------------------------

    def enable_failure_detection(self, heartbeat_interval_s: float = 1.0) -> HeartbeatMonitor:
        """Start the heartbeat-based failure detector.

        Registers the controller itself on the signal bus (address
        ``"controller"``) so daemons' NC_HEARTBEAT beacons reach it, and
        starts a :class:`HeartbeatMonitor` that declares any watched VNF
        dead after three silent intervals.  Opt-in: plain
        planning-mode controllers never touch the bus registry.
        """
        if self.monitor is not None:
            return self.monitor
        self.monitor = HeartbeatMonitor(
            self.scheduler,
            interval_s=heartbeat_interval_s,
            on_dead=self._handle_vnf_failure,
        )
        if not self.bus.is_registered("controller"):
            self.bus.register("controller", self._handle_signal)
        return self.monitor

    def watch_vnf(self, name: str, datacenter: str, vm=None) -> None:
        """Expect heartbeats from VNF ``name`` hosted in ``datacenter``."""
        if self.monitor is None:
            raise RuntimeError("call enable_failure_detection() first")
        self._watched_vnfs[name] = (datacenter, vm)
        self.monitor.watch(name)

    def _handle_signal(self, signal: Signal) -> None:
        """Controller-addressed signals: heartbeats and its own VNF-start notes."""
        if isinstance(signal, NcHeartbeat):
            if self.monitor is not None:
                self.monitor.beat(signal.vnf_name)
        elif isinstance(signal, NcVnfStart):
            pass  # the controller's own launch notification; already acted on

    def _handle_vnf_failure(self, name: str) -> None:
        """Declared-dead VNF: mark, quarantine if needed, route around.

        Runs the full recovery pipeline: fail the backing VM, quarantine
        the data center when it has no usable VM left (and another DC
        can take the load), re-solve the affected sessions,
        reconcile the fleet, and push fresh forwarding tables.
        """
        datacenter, vm = self._watched_vnfs.pop(name, ("", None))
        if self.monitor is not None:
            self.monitor.unwatch(name)
        if vm is not None and vm.state.value not in ("failed", "terminated"):
            vm.fail()
        state = self.fleet.get(datacenter)
        quarantined = False
        if state is not None and not state.usable() and not state.running_or_pending():
            alternatives = set(self.datacenters) - self.disabled_datacenters - {datacenter}
            if alternatives:
                self.disabled_datacenters.add(datacenter)
                quarantined = True
        record = {
            "time": self.scheduler.now,
            "vnf": name,
            "datacenter": datacenter,
            "quarantined": quarantined,
        }
        self.failures.append(record)
        for callback in list(self.on_vnf_failure):
            callback(name, datacenter)
        affected = [
            sid
            for sid, decomposition in self.decompositions.items()
            if any(
                datacenter in edge and rate > 1e-9
                for edge, rate in decomposition.link_rates().items()
            )
        ]
        if affected:
            self._resolve_sessions(affected, reconcile=False)
        self.reconcile_fleet()
        self.push_forwarding_tables()
