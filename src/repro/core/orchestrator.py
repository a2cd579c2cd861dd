"""End-to-end orchestration: controller signals configure a live data plane.

The experiment harnesses configure their VNFs directly for convenience;
this module exercises the *actual* control path of the paper's Fig. 2:

1. the controller solves problem (2) over the network view;
2. the packet-level plumbing is built **blank** (``configure=False``):
   nodes, links, dispatchers exist, but no VNF knows any session;
3. a :class:`~repro.core.daemon.VnfDaemon` runs on every coding node,
   registered on the controller's :class:`~repro.core.signals.SignalBus`;
4. the orchestrator sends each daemon the ``NC_SETTINGS`` (roles,
   coding parameters, output shapes) and ``NC_FORWARD_TAB`` (the text
   table) that :func:`~repro.core.dataplane.config_signals` emits from
   the recorded wirings; the daemon starts the coding function
   (~376 ms) and applies the table (the SIGUSR1 pause);
5. ``NC_START`` to the source node kicks the transfer off.

The integration test asserts the promise survives the whole signalling
chain: the rate measured at the receivers matches the LP's λ.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Protocol

import networkx as nx

from repro.core.dataplane import LiveDeployment, build_data_plane, config_signals
from repro.core.daemon import VnfDaemon
from repro.core.deployment import DataCenterSpec, DeploymentPlan, DeploymentProblem
from repro.core.session import CodingConfig, MulticastSession
from repro.core.signals import (
    NcStart,
    Signal,
    SignalBus,
    SignalPort,
    SignalRecord,
)
from repro.core.vnf import CodingVnf
from repro.net.events import EventScheduler

#: Offered rate as a share of the LP's λ: head-room for the pipeline's
#: startup transient.
RATE_FRACTION = 0.95


class _Startable(Protocol):
    """The slice of a source application NC_START needs: ``start()``."""

    def start(self) -> None: ...


@dataclass
class Orchestration:
    """A deployed system: plan + live data plane + daemons + bus."""

    plan: DeploymentPlan
    deployment: LiveDeployment
    bus: SignalBus
    daemons: dict[str, _ClusterDaemon] = dataclass_field(default_factory=dict)
    scheduler: EventScheduler | None = None
    # Monotonic config epoch for this orchestration's pushes.  The
    # initial deploy stamps epoch 1; anything re-pushing configuration
    # later (a replan, a manual table update) must bump it first so
    # daemons can reject deliveries delayed from before the newer push
    # (DESIGN.md §11).
    config_epoch: int = 1

    def run(self, duration_s: float) -> None:
        if self.scheduler is None:
            raise RuntimeError("orchestration has no scheduler to run")
        self.scheduler.run(until=self.scheduler.now + duration_s)

    def session_throughput_mbps(self, session_id: int, start_s: float = 0.0) -> float:
        return self.deployment.session_throughput_mbps(session_id, start_s=start_s)


class Orchestrator:
    """Deploys sessions the way the paper's controller does: by signal."""

    def __init__(
        self,
        graph: nx.DiGraph,
        datacenters: list[DataCenterSpec],
        alpha: float = 1.0,
        seed: int = 1,
    ) -> None:
        self.graph = graph
        self.datacenters = list(datacenters)
        self.alpha = alpha
        self.control_latency_s = 0.02
        self.seed = seed

    def deploy(self, sessions: list[MulticastSession]) -> Orchestration:
        """Solve, build, configure-by-signal, and start the sessions."""
        scheduler = EventScheduler()
        bus = SignalBus(scheduler, latency_s=self.control_latency_s)

        problem = DeploymentProblem(self.graph, self.datacenters, alpha=self.alpha)
        demands = [problem.build_demand(s) for s in sessions]
        plan = problem.solve(demands)

        deployment = build_data_plane(
            plan,
            self.graph,
            sessions,
            rate_fraction=RATE_FRACTION,
            seed=self.seed,
            scheduler=scheduler,
            configure=False,
        )
        orchestration = Orchestration(plan=plan, deployment=deployment, bus=bus, scheduler=scheduler)
        epoch = orchestration.config_epoch

        # One daemon per coding node (multi-instance clusters share a
        # name; the daemon fans configuration out to every instance).
        session_configs = {s.session_id: s.coding for s in sessions}
        for name, vnfs in deployment.vnfs.items():
            daemon = _ClusterDaemon(vnfs, bus, name, session_configs)
            orchestration.daemons[name] = daemon

        # NC_SETTINGS + NC_FORWARD_TAB per node, from the wirings the
        # blank data plane recorded.
        for name in sorted(deployment.vnfs):
            routed = [wiring for wiring in deployment.wirings.values() if name in wiring.relays]
            settings, table = config_signals(
                name, routed, fence=0, epoch=epoch, coding=session_configs[routed[0].session_id]
            )
            bus.send(settings)
            bus.send(table)

        # Sources wait for NC_START.
        sessions_by_id = {s.session_id: s for s in sessions}
        for sid, source in deployment.sources.items():
            session = sessions_by_id[sid]
            bus.register(f"{session.source}/session{sid}", _StartHandler(source))
            bus.send(NcStart(target=f"{session.source}/session{sid}", session_id=sid))
        return orchestration


class _StartHandler:
    """Starts a source application when its NC_START arrives."""

    def __init__(self, source: _Startable) -> None:
        self.source = source

    def __call__(self, signal: Signal) -> None:
        if isinstance(signal, NcStart):
            self.source.start()


class _ClusterDaemon:
    """A daemon covering every VNF instance of one data center.

    The paper runs one daemon per coding node; a multi-instance data
    center behind a dispatcher gets the same configuration applied to
    each instance (they are interchangeable for dispatching purposes).
    """

    def __init__(
        self,
        vnfs: list[CodingVnf],
        bus: SignalBus,
        name: str,
        session_configs: dict[int, CodingConfig],
    ) -> None:
        self.vnfs = vnfs
        self.members = [
            VnfDaemon(vnf, _FanBus(bus), session_configs=session_configs) for vnf in vnfs
        ]
        bus.register(name, self.handle_signal)

    def handle_signal(self, signal: Signal) -> None:
        for member in self.members:
            member.handle_signal(signal)

    @property
    def function_running(self) -> bool:
        return all(m.function_running for m in self.members)


class _FanBus:
    """Bus facade for cluster members: registration handled by the cluster."""

    def __init__(self, bus: SignalPort) -> None:
        self._bus = bus

    def register(self, name: str, handler: Callable[[Signal], None]) -> None:
        pass  # cluster-level registration only

    def unregister(self, name: str) -> None:
        pass

    def send(self, signal: Signal) -> SignalRecord:
        return self._bus.send(signal)
