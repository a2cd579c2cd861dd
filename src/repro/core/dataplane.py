"""From a routed session to a running one — the only place that knows how.

The paper's controller stands a session up one way: it solves problem
(2), lowers the routed flows to per-node roles, forwarding tables and
output shapes, and pushes them as ``NC_SETTINGS`` + ``NC_FORWARD_TAB``
(§III-A).  This module is that path, as three plain functions over one
frozen record (DESIGN.md "One bring-up"): :func:`lower_session` (link
rates → :class:`SessionWiring`), :func:`config_signals` (wiring → the
two config signals) and :func:`bring_up` (topology + session + wiring →
running VNFs, daemons, control relays, receivers and source).  Every
experiment harness goes through them, and so does
:func:`build_data_plane`, the plan → packets step that lets an
end-to-end test assert that the rate the LP promised is the rate the
packet level delivers; the butterfly and the chain presets are wirings
written down as data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.apps.file_transfer import ControlRelay, NcReceiverApp, NcSourceApp, RepairingControlRelay
from repro.core.daemon import VnfDaemon
from repro.core.deployment import DeploymentPlan
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.signals import NcForwardTab, NcSettings, SignalBus
from repro.core.vnf import NC_PORT, CodingVnf, VnfDispatcher, VnfRole
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import DaemonTarget
from repro.net.events import EventScheduler
from repro.net.topology import LinkSpec, Topology
from repro.util.rng import KeyPart, derive_rng

CONTROL_LINK_MBPS = 5.0
#: Every data link's drop-tail queue, and the jitter of a plan
#: instantiated by :func:`build_data_plane`.
QUEUE_BYTES = 48 * 1024
JITTER_S = 0.003

#: The one rate threshold of the lowering: a link carrying less than
#: this is not part of the session's routing.
RATE_EPS = 1e-9

Edge = tuple[str, str]


# -- the record ----------------------------------------------------------------


@dataclass(frozen=True)
class RelayWiring:
    """What one relay does for one session."""

    role: VnfRole
    next_hops: tuple[str, ...]
    #: next hop -> arrivals skipped at the head of each generation.  A
    #: zero entry is meaningful: it *clears* a shape left on that hop.
    skips: Mapping[str, int] = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class SessionWiring:
    """A routed session lowered to what the data plane consumes."""

    session_id: int
    relays: Mapping[str, RelayWiring]
    #: Source next hop -> wire share (Mbps), in the order the source
    #: serves its links.
    source_shares: Mapping[str, float]
    #: Receiver -> reverse ACK/NACK path (receiver first, source last),
    #: one per receiver the wiring feeds.
    control_paths: Mapping[str, tuple[str, ...]]
    #: Goodput rate λ the source produces generations at (Mbps).
    lambda_mbps: float

    def scaled(self, wire_fraction: float, goodput_fraction: float) -> SessionWiring:
        """The same routing offered below the optimum (head-room margins)."""
        return dataclasses.replace(
            self,
            source_shares={hop: rate * wire_fraction for hop, rate in self.source_shares.items()},
            lambda_mbps=self.lambda_mbps * goodput_fraction,
        )


@dataclass(frozen=True)
class Arq:
    """The reliability layer's numbers — preset data, like the wiring."""

    #: Source flow-control window (generations); ``None`` paces unwindowed.
    window_generations: int | None = None
    ack_interval_s: float = 0.03
    stall_generations: int = 128
    stall_timeout_s: float = 0.25
    #: ACK each generation the moment it decodes (the Tab. II RTT probe).
    ack_immediately: bool = False


# -- 1. the lowering -------------------------------------------------------------


def lower_session(
    link_rates: Mapping[Edge, float],
    session: MulticastSession,
    relay_nodes: Iterable[str],
    graph: nx.DiGraph,
    lambda_mbps: float,
) -> SessionWiring:
    """Lower a session's routed link rates f_m(e) to its wiring.

    A relay (``relay_nodes``, in the order given) is a RECODER where
    flows of the session merge and a plain FORWARDER elsewhere ("in the
    case where only one flow of a session arrives at a data center,
    direct forwarding is sufficient").  A merge whose out-link carries
    only a fraction of its inflow skips the complementary head of each
    generation, so every emitted recode already mixes the branches (the
    butterfly's T); the skip is clamped to [1, k − 1] — a skip of k
    would silence the relay toward that hop — and every other routed
    hop gets an explicit 0.  Single-block generations cannot be split
    across branches; drop-tail enforces the allocation (DESIGN.md §2).

    Control traffic rides the reverse of the data links, so a receiver's
    control path is its delay-shortest path through ``graph``, reversed.
    Source shares keep the iteration order of ``link_rates`` — the order
    the source serves its links in; a caller wanting it canonical sorts.
    """
    rates = {edge: rate for edge, rate in link_rates.items() if rate > RATE_EPS}
    k = session.coding.blocks_per_generation
    relays: dict[str, RelayWiring] = {}
    for name in relay_nodes:
        hops = tuple(sorted(v for (u, v) in rates if u == name))
        if not hops:
            continue
        branches = [rate for (_, v), rate in rates.items() if v == name]
        inflow = sum(branches)
        merge = len(branches) >= 2
        skips = dict.fromkeys(hops, 0)
        if merge and k >= 2:
            for hop in hops:
                out = rates[(name, hop)]
                if out < inflow - RATE_EPS:
                    skips[hop] = max(1, min(k - 1, int(round(k * (inflow - out) / inflow))))
        relays[name] = RelayWiring(VnfRole.RECODER if merge else VnfRole.FORWARDER, hops, skips)

    control: dict[str, tuple[str, ...]] = {}
    for receiver in session.receivers:
        try:
            forward = nx.shortest_path(graph, session.source, receiver, weight="delay_ms")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        control[receiver] = tuple(reversed(forward))
    return SessionWiring(
        session_id=session.session_id,
        relays=relays,
        source_shares={v: rate for (u, v), rate in rates.items() if u == session.source},
        control_paths=control,
        lambda_mbps=lambda_mbps,
    )


def chain_wiring(
    session: MulticastSession, path: Sequence[str], role: VnfRole, lambda_mbps: float, shares: Mapping[str, float]
) -> SessionWiring:
    """A relay chain as a wiring: each node passes to the next, ACKs ride it in reverse."""
    return SessionWiring(
        session_id=session.session_id,
        relays={name: RelayWiring(role, (nxt,)) for name, nxt in zip(path[1:-1], path[2:])},
        source_shares=shares,
        control_paths={path[-1]: tuple(reversed(path))},
        lambda_mbps=lambda_mbps,
    )


# -- 2. the emitter --------------------------------------------------------------


def config_signals(
    relay: str,
    wirings: Sequence[SessionWiring],
    *,
    fence: int,
    epoch: int,
    coding: CodingConfig | None = None,
) -> tuple[NcSettings, NcForwardTab]:
    """One relay's configuration for the sessions in ``wirings``, as signals.

    With ``coding`` the NC_SETTINGS is the initialization bundle (roles,
    port, sizes) that starts the coding function.  Without it the pair
    is a re-push of table and shapes only: a re-sent role would make the
    daemon reconfigure the session and drop its buffered generations.
    """
    mine = [(wiring.session_id, wiring.relays[relay]) for wiring in wirings]
    settings = NcSettings(
        target=relay,
        session_ids=tuple(sid for sid, _ in mine),
        shapes=tuple((sid, hop, skip) for sid, wired in mine for hop, skip in sorted(wired.skips.items())),
        epoch=epoch,
        fence=fence,
    )
    if coding is not None:
        settings = dataclasses.replace(
            settings,
            roles=tuple((sid, wired.role.value) for sid, wired in mine),
            udp_port=NC_PORT,
            generation_bytes=coding.generation_bytes,
            block_bytes=coding.block_bytes,
        )
    table = ForwardingTable({sid: list(wired.next_hops) for sid, wired in mine})
    return settings, NcForwardTab(target=relay, table_text=table.serialize(), epoch=epoch, fence=fence)


# -- 3. the bring-up ---------------------------------------------------------------


@dataclass
class LiveDeployment:
    """A running packet-level instantiation of one or more wired sessions."""

    topology: Topology
    sources: dict[int, NcSourceApp] = dataclass_field(default_factory=dict)
    receivers: dict[tuple[int, str], NcReceiverApp] = dataclass_field(default_factory=dict)
    vnfs: dict[str, list[CodingVnf]] = dataclass_field(default_factory=dict)
    dispatchers: dict[str, VnfDispatcher] = dataclass_field(default_factory=dict)
    #: session id -> what was (or, after ``configure=False``, what the
    #: control plane still has to get) configured.
    wirings: dict[int, SessionWiring] = dataclass_field(default_factory=dict)
    daemons: dict[str, VnfDaemon] = dataclass_field(default_factory=dict)
    control_relays: dict[str, ControlRelay] = dataclass_field(default_factory=dict)

    def start(self) -> None:
        for source in self.sources.values():
            source.start()

    def run(self, duration_s: float) -> None:
        self.topology.run(until=duration_s)

    def endpoints(self, session_id: int) -> tuple[NcSourceApp, dict[str, NcReceiverApp]]:
        """One session's source and its receivers by node name."""
        receivers = {name: app for (sid, name), app in self.receivers.items() if sid == session_id}
        return self.sources[session_id], receivers

    def route_feedback(self, paths: Mapping[str, tuple[str, ...]], relay_repair: bool = False) -> None:
        """Bounce ACK/NACK traffic hop by hop along the reverse ``paths``.

        One control relay per node; a node already relaying is
        re-targeted (recovery moves the route off a dead node this way).
        With ``relay_repair`` a node that is also a coding VNF answers
        NACKs from its buffered coded state as well as forwarding them.
        """
        for path in paths.values():
            for name, upstream in zip(path[1:-1], path[2:]):
                relay = self.control_relays.get(name)
                if relay is not None:
                    relay.retarget(upstream)
                elif relay_repair and name in self.vnfs:
                    (vnf,) = self.vnfs[name]
                    self.control_relays[name] = RepairingControlRelay(vnf, upstream, vnf)
                else:
                    self.control_relays[name] = ControlRelay(self.topology.get(name), upstream)

    def arm_faults(self, plan: FaultPlan, bus: SignalBus, **handles: DaemonTarget) -> FaultInjector:
        """An armed injector over every link, every relay daemon and ``bus``, plus
        the ``handles`` a plan names further processes by (the reporter)."""
        injector = FaultInjector(self.topology.scheduler, plan)
        injector.add_topology(self.topology)
        targets: dict[str, DaemonTarget] = {**self.daemons, **handles}
        for name, daemon in targets.items():
            injector.add_daemon(name, daemon)
        injector.set_bus(bus)
        injector.arm()
        return injector

    def session_throughput_mbps(self, session_id: int, start_s: float = 0.0) -> float:
        """Min over the session's receivers of measured goodput."""
        _, receivers = self.endpoints(session_id)
        return min(app.goodput_mbps(start_s=start_s) for app in receivers.values())


def bring_up(
    live: LiveDeployment,
    session: MulticastSession,
    wiring: SessionWiring,
    *,
    stream: tuple[KeyPart, ...],
    seed: int,
    source_key: KeyPart | None = None,
    payload_mode: str = "coefficients-only",
    coding_mbps: float = 900.0,
    instances: Mapping[str, int] | None = None,
    configure: bool = True,
    bus: SignalBus | None = None,
    heartbeat_interval_s: float | None = None,
    arq: Arq | None = None,
    relay_repair: bool = False,
    coded: bool = True,
    total_generations: int | None = None,
) -> LiveDeployment:
    """Stand ``session`` up on ``live.topology`` as ``wiring`` says.

    Always relays → daemons → control relays → receivers → source; the
    caller continues with its own control loop, ``live.arm_faults``, any
    hook and ``live.start()``.  Constructors that ``schedule`` take their
    sequence numbers in that order and every later tie-break and RNG
    draw follows from it: the order *is* the fingerprint.

    Each relay codes off the stream ``(*stream, "vnf", name)`` — plus
    the instance index where ``instances`` (a plan's ``vnf_counts``)
    sizes the data centers, several instances sitting behind a
    :class:`VnfDispatcher` (§IV-A) — and the source off ``(*stream,
    "source", source_key or its node name)`` (DESIGN.md §10).  A relay
    another session of ``live`` installed is shared.  ``configure=False``
    leaves the VNFs blank for an orchestrator to push ``live.wirings``
    by signal.  ``bus`` runs a :class:`VnfDaemon` per relay, its coding
    function counted as up since the VNF was configured directly.
    ``arq`` installs the feedback path (control relays, ACKing
    receivers, the source's window); ``None`` is the pure pipeline.
    """
    topo = live.topology
    sid = session.session_id
    live.wirings[sid] = wiring

    for name, wired in wiring.relays.items():
        if name not in live.vnfs:
            keys: list[tuple[KeyPart, ...]] = (
                [(name,)] if instances is None else [(name, i) for i in range(instances[name])]
            )
            live.vnfs[name] = [
                CodingVnf(
                    name,
                    topo.scheduler,
                    coding_capacity_mbps=coding_mbps,
                    rng=derive_rng(*stream, "vnf", *key, seed=seed),
                    payload_mode=payload_mode,
                )
                for key in keys
            ]
            _install(live, name)
        if configure:
            for vnf in live.vnfs[name]:
                vnf.configure_session(sid, wired.role, session.coding)
                vnf.forwarding_table.set_next_hops(sid, wired.next_hops)
                for hop, skip in wired.skips.items():
                    vnf.set_hop_shape(sid, hop, skip)

    if bus is not None:
        for name in wiring.relays:
            if name not in live.daemons:
                (vnf,) = live.vnfs[name]
                live.daemons[name] = VnfDaemon(vnf, bus, heartbeat_interval_s=heartbeat_interval_s)
                live.daemons[name].function_running = True

    numbers = arq if arq is not None else Arq()
    if arq is not None:
        live.route_feedback(wiring.control_paths, relay_repair)
    for name, path in wiring.control_paths.items():
        live.receivers[(sid, name)] = NcReceiverApp(
            topo.get(name),
            session,
            payload_mode=payload_mode,
            ack_to=path[1] if arq is not None else None,
            ack_interval_s=numbers.ack_interval_s,
            stall_generations=numbers.stall_generations,
            stall_timeout_s=numbers.stall_timeout_s,
            ack_immediately=numbers.ack_immediately,
        )
    live.sources[sid] = NcSourceApp(
        topo.get(session.source),
        session,
        link_shares=dict(wiring.source_shares),
        data_rate_mbps=wiring.lambda_mbps,
        coded=coded,
        window_generations=numbers.window_generations,
        payload_mode=payload_mode,
        rng=derive_rng(*stream, "source", session.source if source_key is None else source_key, seed=seed),
        total_generations=total_generations,
    )
    return live


def _install(live: LiveDeployment, name: str) -> None:
    """Put ``live.vnfs[name]`` where the plain host ``name`` stood."""
    vnfs = live.vnfs[name]
    if len(vnfs) == 1:
        live.topology.replace_node(vnfs[0])
        return
    # Every instance carries the data center's name: the dispatcher owns
    # the topology slot, instances sit behind it and send on the shared
    # outgoing links (their datagrams carry the DC as source).
    dispatcher = live.dispatchers[name] = VnfDispatcher(name, live.topology.scheduler)
    live.topology.replace_node(dispatcher)
    for vnf in vnfs:
        dispatcher.add_instance(vnf)
        for (src, _), link in live.topology.links.items():
            if src == name:
                vnf.attach_out(link)


def build_data_plane(
    plan: DeploymentPlan,
    graph: nx.DiGraph,
    sessions: list[MulticastSession],
    rate_fraction: float = 1.0,
    seed: int = 1,
    scheduler: EventScheduler | None = None,
    configure: bool = True,
) -> LiveDeployment:
    """Instantiate ``plan`` over ``graph`` for the given sessions.

    The topology holds the links the plan uses (capacities and delays
    from the graph's ``capacity_mbps``/``delay_ms``) plus a reverse
    control link for each.  ``rate_fraction`` scales every session's
    offered rate below its λ (head-room for the pipeline's startup
    transient).  ``configure=False`` builds the plumbing but leaves the
    VNFs blank (``.wirings`` records what they should get) — an
    orchestrator then configures them over the signal bus, the way the
    real control plane would.
    """
    if not 0 < rate_fraction <= 1.0:
        raise ValueError("rate_fraction must be in (0, 1]")
    sessions_by_id = {s.session_id: s for s in sessions}
    routed = {
        sid: {edge: rate for edge, rate in decomposition.link_rates().items() if rate > RATE_EPS}
        for sid, decomposition in plan.decompositions.items()
        if sid in sessions_by_id
    }
    used_edges = {edge for rates in routed.values() for edge in rates}

    # Links are keyed children of this root; every VNF instance and every
    # session's source derives its own stream (DESIGN §10 "Random streams").
    rng = derive_rng("core.dataplane", seed=seed)
    topo = Topology(rng=rng) if scheduler is None else Topology(scheduler=scheduler, rng=rng)
    for name in sorted({node for edge in used_edges for node in edge}):
        topo.add_node(name)
    for (u, v) in sorted(used_edges):
        data = graph.edges[u, v]
        topo.add_link(
            LinkSpec(u, v, data["capacity_mbps"], data["delay_ms"], queue_bytes=QUEUE_BYTES, jitter_s=JITTER_S)
        )
        if (v, u) not in used_edges:
            topo.add_link(LinkSpec(v, u, CONTROL_LINK_MBPS, data["delay_ms"], queue_bytes=QUEUE_BYTES))

    live = LiveDeployment(topology=topo)
    datacenters = sorted(name for name, count in plan.vnf_counts.items() if count > 0)
    for sid, rates in routed.items():
        if not rates:
            continue
        session = sessions_by_id[sid]
        wiring = lower_session(
            rates, session, datacenters, graph.edge_subgraph(rates), plan.lambdas.get(sid, 0.0)
        ).scaled(rate_fraction, rate_fraction)
        bring_up(
            live,
            session,
            dataclasses.replace(wiring, lambda_mbps=max(wiring.lambda_mbps, 1e-3)),
            stream=("core.dataplane",),
            seed=seed,
            source_key=sid,
            instances=plan.vnf_counts,
            configure=configure,
        )
    return live
