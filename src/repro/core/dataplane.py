"""From plan to packets: instantiate a solved deployment as a live data plane.

The optimizer (problem (2)) produces a :class:`DeploymentPlan` — VNF
counts and conceptual flows.  This module builds the matching
packet-level simulation, the step the butterfly harness wires by hand:

- a :class:`~repro.net.topology.Topology` with the used links (plus
  reverse control links for ACK/NACK traffic),
- coding VNFs at each data center the plan populates, with
  :class:`~repro.core.vnf.VnfDispatcher` front-ends where a data center
  runs several instances (generation-keyed dispatch, §IV-A),
- per-session roles: RECODER where flows of the session merge, plain
  FORWARDER elsewhere ("in the case where only one flow of a session
  arrives at a data center, direct forwarding is sufficient"),
- output shaping at merge points derived from the flow rates (skip the
  fraction of each generation the out-link is not allocated),
- forwarding tables derived from the actual link rates f_m(e),
- an :class:`~repro.apps.file_transfer.NcSourceApp` per session paced
  by the source's conceptual-flow shares, and a decoding receiver app
  per destination.

This is what lets an end-to-end test assert that the rate the LP
promised is the rate the packet level delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import networkx as nx

from repro.apps.file_transfer import NcReceiverApp, NcSourceApp
from repro.core.deployment import DeploymentPlan
from repro.core.session import MulticastSession
from repro.core.vnf import CodingVnf, VnfDispatcher, VnfRole
from repro.net.events import EventScheduler
from repro.net.topology import LinkSpec, Topology
from repro.util.rng import derive_rng

CONTROL_LINK_MBPS = 5.0


#: Per-session configuration intent for one data center: role, next
#: hops, and {hop: skip} output shapes.
IntendedConfig = tuple[VnfRole, list[str], dict[str, int]]


@dataclass
class LiveDeployment:
    """A running packet-level instantiation of a deployment plan."""

    topology: Topology
    sources: dict[int, NcSourceApp] = dataclass_field(default_factory=dict)
    receivers: dict[tuple[int, str], NcReceiverApp] = dataclass_field(default_factory=dict)
    vnfs: dict[str, list[CodingVnf]] = dataclass_field(default_factory=dict)
    dispatchers: dict[str, VnfDispatcher] = dataclass_field(default_factory=dict)
    # dc name -> {session id: (role, [next hops], {hop: skip})}; what the
    # control plane must configure when configure=False was used.
    intended: dict[str, dict[int, IntendedConfig]] = dataclass_field(default_factory=dict)

    def start(self) -> None:
        for source in self.sources.values():
            source.start()

    def run(self, duration_s: float) -> None:
        self.topology.run(until=duration_s)

    def session_throughput_mbps(self, session_id: int, start_s: float = 0.0) -> float:
        """Min over the session's receivers of measured goodput."""
        rates = [
            app.goodput_mbps(start_s=start_s)
            for (sid, _), app in self.receivers.items()
            if sid == session_id
        ]
        if not rates:
            raise KeyError(f"no receivers for session {session_id}")
        return min(rates)

    def corrupt_dropped(self) -> int:
        """Corrupt packets dropped across every VNF and receiver.

        The pollution-containment invariant (DESIGN.md §11): on a dirty
        wire this is positive while decoded generations stay
        bit-identical — corruption died at a verification gate instead
        of reaching Gaussian elimination.
        """
        total = sum(vnf.corrupt_dropped for vnfs in self.vnfs.values() for vnf in vnfs)
        total += sum(app.corrupt_dropped for app in self.receivers.values())
        return total


def build_data_plane(
    plan: DeploymentPlan,
    graph: nx.DiGraph,
    sessions: list[MulticastSession],
    payload_mode: str = "coefficients-only",
    rate_fraction: float = 1.0,
    queue_bytes: int = 48 * 1024,
    jitter_s: float = 0.003,
    vnf_coding_mbps: float = 900.0,
    seed: int = 1,
    scheduler: EventScheduler | None = None,
    configure: bool = True,
) -> LiveDeployment:
    """Instantiate ``plan`` over ``graph`` for the given sessions.

    ``rate_fraction`` scales every session's offered rate below its λ
    (head-room for the pipeline's startup transient); link capacities
    come from the graph's ``capacity_mbps``/``delay_ms`` attributes.
    ``configure=False`` builds the plumbing but leaves the VNFs blank
    (their intended configuration is recorded in ``.intended``) — an
    orchestrator then configures them over the signal bus, the way the
    real control plane would.
    """
    if not 0 < rate_fraction <= 1.0:
        raise ValueError("rate_fraction must be in (0, 1]")
    sessions_by_id = {s.session_id: s for s in sessions}
    # Links are keyed children of this root; every VNF instance and every
    # session's source derives its own stream (DESIGN §10 "Random streams").
    rng = derive_rng("core.dataplane", seed=seed)
    topo = Topology(rng=rng) if scheduler is None else Topology(scheduler=scheduler, rng=rng)

    # -- which links the plan actually uses --------------------------------
    used_edges: set[tuple[str, str]] = set()
    for sid, decomposition in plan.decompositions.items():
        if sid not in sessions_by_id:
            continue
        for edge, rate in decomposition.link_rates().items():
            if rate > 1e-9:
                used_edges.add(edge)
    used_nodes = {n for e in used_edges for n in e}

    # -- nodes: dispatched VNF clusters at data centers, hosts elsewhere ----
    deployment = LiveDeployment(topology=topo)
    for name in sorted(used_nodes):
        count = plan.vnf_counts.get(name, 0)
        if count <= 0:
            topo.add_node(name)
            continue
        # Every instance carries the data center's name: the dispatcher
        # owns the topology slot, instances sit behind it and send on the
        # shared outgoing links (their datagrams carry the DC as source).
        instances = [
            CodingVnf(
                name,
                topo.scheduler,
                coding_capacity_mbps=vnf_coding_mbps,
                rng=derive_rng("core.dataplane", "vnf", name, instance, seed=seed),
                payload_mode=payload_mode,
            )
            for instance in range(count)
        ]
        deployment.vnfs[name] = instances
        if count == 1:
            topo.add_node(instances[0])
        else:
            dispatcher = VnfDispatcher(name, topo.scheduler)
            for vnf in instances:
                dispatcher.add_instance(vnf)
            deployment.dispatchers[name] = dispatcher
            topo.add_node(dispatcher)

    # -- links: used data links + reverse control links ---------------------
    for (u, v) in sorted(used_edges):
        data = graph.edges[u, v]
        topo.add_link(
            LinkSpec(u, v, data["capacity_mbps"], data["delay_ms"], queue_bytes=queue_bytes, jitter_s=jitter_s)
        )
        if (v, u) not in used_edges:
            topo.add_link(LinkSpec(v, u, CONTROL_LINK_MBPS, data["delay_ms"], queue_bytes=queue_bytes))
    # Multi-instance clusters need each instance wired to the out-links.
    for name, vnfs in deployment.vnfs.items():
        if len(vnfs) <= 1:
            continue
        for (u, v), link in topo.links.items():
            if u == name:
                for vnf in vnfs:
                    vnf.attach_out(link)

    # -- per-session configuration ------------------------------------------
    for sid, decomposition in plan.decompositions.items():
        session = sessions_by_id.get(sid)
        if session is None:
            continue
        link_rates = {e: r for e, r in decomposition.link_rates().items() if r > 1e-9}
        if not link_rates:
            continue
        inflow: dict[str, float] = {}
        next_hops: dict[str, list[str]] = {}
        for (u, v), rate in link_rates.items():
            inflow[v] = inflow.get(v, 0.0) + rate
            next_hops.setdefault(u, []).append(v)

        k = session.coding.blocks_per_generation
        for name, vnfs in deployment.vnfs.items():
            hops = sorted(next_hops.get(name, []))
            if not hops:
                continue
            incoming = [e for e in link_rates if e[1] == name]
            role = VnfRole.RECODER if len(incoming) > 1 else VnfRole.FORWARDER
            node_in = inflow.get(name, 0.0)
            shapes: dict[str, int] = {}
            if role is VnfRole.RECODER and node_in > 0:
                for hop in hops:
                    out_rate = link_rates[(name, hop)]
                    if out_rate < node_in - 1e-9:
                        # Skip the head of each generation so every
                        # emitted recode mixes the merged branches.
                        skip = int(round(k * (node_in - out_rate) / node_in))
                        shapes[hop] = max(1, min(k - 1, skip))
            deployment.intended.setdefault(name, {})[sid] = (role, hops, shapes)
            if configure:
                for vnf in vnfs:
                    vnf.configure_session(sid, role, session.coding)
                    vnf.forwarding_table = vnf.forwarding_table.copy()
                    vnf.forwarding_table.set_next_hops(sid, hops)
                    for hop, skip in shapes.items():
                        vnf.set_hop_shape(sid, hop, skip)

        # Receivers decode; the source paces per its conceptual shares.
        for receiver in session.receivers:
            if any(e[1] == receiver for e in link_rates):
                deployment.receivers[(sid, receiver)] = NcReceiverApp(
                    topo.get(receiver), session, payload_mode=payload_mode
                )
        source_shares = {
            v: rate * rate_fraction for (u, v), rate in link_rates.items() if u == session.source
        }
        if source_shares:
            deployment.sources[sid] = NcSourceApp(
                topo.get(session.source),
                session,
                link_shares=source_shares,
                data_rate_mbps=max(plan.lambdas.get(sid, 0.0) * rate_fraction, 1e-3),
                payload_mode=payload_mode,
                rng=derive_rng("core.dataplane", "source", sid, seed=seed),
            )
    return deployment
