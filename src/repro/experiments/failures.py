"""Butterfly-under-failure: crash a relay VNF mid-transfer and recover.

The paper's scaling story (§IV-B) reacts to *gradual* change — bandwidth
drift, delay drift, churn.  Real clouds also fail abruptly: a VM dies, a
daemon crashes, a link flaps.  This module measures what the
reproduction does about it, at two levels:

- :func:`run_butterfly_failover` — packet level.  The Fig. 6 butterfly
  runs an RLNC transfer while a :class:`~repro.faults.FaultInjector`
  pulls the power cord on a relay node (links down + daemon killed).
  Heartbeats stop, the failure detector declares the VNF dead, and the
  recovery callback runs :func:`repro.core.healing.plan_recovery` — a
  full re-optimization (feasible-path DFS + LP deployment) over the
  topology with the corpse excised — then pushes fresh NC_FORWARD_TABs
  and hop shapes, reconfigures the source, and re-routes the reverse
  control paths.  The result reports detection latency, per-receiver
  decode stalls and the recovery latency — the butterfly's MTTR.
- :func:`run_fleet_failover` — flow level.  The six-data-center world
  of :mod:`repro.experiments.dynamic` with live cloud providers: a VM
  is crashed under the controller, missed heartbeats trigger
  :meth:`Controller._handle_vnf_failure`, the fleet is reconciled (a
  replacement VM boots) and the time until the fleet again meets the
  requirement is the MTTR.

Both runs are driven entirely by the shared event scheduler and seeded
RNG derivation: a fixed seed gives bit-identical failure, detection and
recovery times.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.apps.file_transfer import (
    ControlRelay,
    NcReceiverApp,
    NcSourceApp,
    RepairingControlRelay,
)
from repro.core.controller import Controller, HeartbeatMonitor
from repro.core.daemon import VnfDaemon
from repro.core.healing import RecoveryPlan, plan_recovery
from repro.core.scaling import ScalingEngine
from repro.core.signals import NcForwardTab, NcHeartbeat, NcSettings, Signal, SignalBus
from repro.experiments.butterfly import (
    CONTROL_PATHS,
    LINK_MBPS,
    RECEIVERS,
    RELAYS,
    SOURCE,
    VNF_CODING_MBPS,
    _make_session,
    _nc_hop_shapes,
    _nc_source_shares,
    build_butterfly,
    butterfly_graph,
    deploy_relays,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.net.events import PeriodicEvent
from repro.rlnc.redundancy import RedundancyPolicy
from repro.util.rng import derive_rng

#: Post-recovery margins, expressed at the 35 Mbps butterfly link so the
#: headline numbers stay readable.  The LP optimum on any single-corpse
#: butterfly is one 35 Mbps branch per receiver; the wire share backs
#: off to 34 Mbps (headers ride the wire too: 1500 B on the link move
#: 1460 B of blocks, and repairs need headroom) and the goodput λ drops
#: to 27 Mbps so every generation carries ~k+1 packets per branch —
#: without that margin a receiver sees exactly k random recodes per
#: generation and the GF(256) singular-matrix rate (~0.4 %) stalls the
#: window for a NACK round-trip every few hundred generations.  The
#: harness feeds the *ratios* (34/35, 27/35) into
#: :func:`repro.core.healing.plan_recovery`, which applies them to the
#: LP optimum of whatever topology actually survived.
SIDE_BRANCH_RATE_MBPS = 27.0
SIDE_BRANCH_SHARE_MBPS = 34.0


@dataclass
class FailoverResult:
    """Outcome of one packet-level butterfly failover run."""

    fail_node: str = ""
    failed_at: float = 0.0
    detected_at: float | None = None
    detection_latency_s: float | None = None
    #: max over receivers of (first decode after detection − failed_at);
    #: the headline MTTR of the data plane.
    recovery_latency_s: float | None = None
    recovered: bool = False
    #: receiver -> longest gap between consecutive generation decodes.
    decode_stall_s: dict = dataclass_field(default_factory=dict)
    #: receiver -> generations decoded before / after the failure.
    decoded_before: dict = dataclass_field(default_factory=dict)
    decoded_after: dict = dataclass_field(default_factory=dict)
    #: receiver -> goodput over the post-detection interval (Mbps).
    post_recovery_throughput_mbps: dict = dataclass_field(default_factory=dict)
    heartbeats_sent: dict = dataclass_field(default_factory=dict)
    undeliverable_signals: int = 0
    applied_faults: list = dataclass_field(default_factory=list)
    #: nodes declared dead by the detector, in declaration order.
    dead_nodes: list = dataclass_field(default_factory=list)
    #: one RecoveryPlan per death verdict (when recover=True).
    recovery_plans: list = dataclass_field(default_factory=list)
    # Live objects for test inspection.
    topology: object = None
    source: object = None
    receivers: dict = dataclass_field(default_factory=dict)
    daemons: dict = dataclass_field(default_factory=dict)
    control_relays: dict = dataclass_field(default_factory=dict)
    monitor: object = None
    bus: object = None


def run_butterfly_failover(
    fail_node: str = "V2",
    fail_at_s: float = 1.0,
    duration_s: float = 5.0,
    rate_mbps: float = 70.0,
    blocks_per_generation: int = 4,
    window_generations: int = 64,
    heartbeat_interval_s: float = 0.1,
    miss_threshold: int = 3,
    bus_latency_s: float = 0.02,
    payload_mode: str = "coefficients-only",
    plan: FaultPlan | None = None,
    recover: bool = True,
    relay_repair: bool = False,
    total_generations: int | None = None,
    retain_decoded: bool = False,
    churn_hook=None,
    seed: int = 7,
) -> FailoverResult:
    """Crash a relay node mid-transfer; detect, re-optimize, keep decoding.

    ``plan`` overrides the default single NODE_CRASH schedule (the
    property tests and the chaos soak feed random plans through here).
    ``recover=False`` keeps the detector running but suppresses the
    reroute, isolating what the ARQ layer alone salvages.
    ``relay_repair=True`` lets surviving recoding VNFs answer NACKs from
    their buffered coded state in addition to forwarding them upstream.
    ``total_generations`` bounds the transfer (a completable file) so
    callers can assert it finishes; ``None`` streams for the whole run.
    ``retain_decoded=True`` keeps every decoded generation on the
    receivers so integrity tests can compare payloads against the
    source cache bit for bit.
    ``churn_hook``, when given, is called as ``churn_hook(scheduler,
    bus)`` right before the source starts: the failure-matrix tests use
    it to schedule controller-visible session churn (fleet joins and
    leaves pushing their own config signals over the same bus) that
    runs concurrently with the injected faults.

    Recovery is a full re-optimization, not table pruning: on each death
    verdict :func:`repro.core.healing.plan_recovery` re-runs the
    feasible-path DFS and the LP deployment on the butterfly graph with
    every dead node excised, then pushes fresh forwarding tables
    (NC_FORWARD_TAB), clears or installs hop shapes (NC_SETTINGS),
    reconfigures the source's rate and link shares, and re-routes the
    receivers' reverse ACK/NACK paths.  This is what fixes the O1 crash:
    the old fallback kept the source pumping half its packets into the
    dead next hop, stalling both receivers at half rank.
    """
    if fail_node not in RELAYS:
        raise ValueError(f"fail_node must be one of {RELAYS}")
    topo = build_butterfly(jitter_s=0.0, seed=seed)
    session = _make_session(blocks_per_generation, 1024, RedundancyPolicy(0))
    bus = SignalBus(topo.scheduler, latency_s=bus_latency_s)

    static_shapes = _nc_hop_shapes(blocks_per_generation, 0)
    relays = deploy_relays(topo, session, seed, payload_mode, hop_shapes=static_shapes)

    # Control plane: one daemon per relay, emitting heartbeats.  The
    # data plane was configured directly above, so the coding function
    # is already up — mark it so pushed tables apply immediately.
    daemons = {}
    for name, vnf in relays.items():
        daemon = VnfDaemon(vnf, bus, heartbeat_interval_s=heartbeat_interval_s)
        daemon.function_running = True
        daemons[name] = daemon

    result = FailoverResult(fail_node=fail_node, failed_at=fail_at_s)

    # Control path: re-targetable relay objects so recovery can move the
    # reverse ACK/NACK route off a dead node.  With relay_repair, relays
    # that are also recoding VNFs answer NACKs from local coded state.
    control_relays: dict = {}

    def _ensure_control_relay(node_name: str, next_hop: str) -> None:
        existing = control_relays.get(node_name)
        if existing is not None:
            existing.retarget(next_hop)
            return
        node = topo.get(node_name)
        if relay_repair and node_name in relays:
            control_relays[node_name] = RepairingControlRelay(node, next_hop, relays[node_name])
        else:
            control_relays[node_name] = ControlRelay(node, next_hop)

    for path in CONTROL_PATHS.values():
        for node_name, nxt in zip(path[1:-1], path[2:]):
            _ensure_control_relay(node_name, nxt)
    result.control_relays = control_relays

    receivers = {
        name: NcReceiverApp(
            topo.get(name),
            session,
            payload_mode=payload_mode,
            ack_to=CONTROL_PATHS[name][1],
            retain_decoded=retain_decoded,
        )
        for name in RECEIVERS
    }
    source = NcSourceApp(
        topo.get(SOURCE),
        session,
        link_shares=_nc_source_shares(rate_mbps, blocks_per_generation, 0),
        data_rate_mbps=rate_mbps,
        payload_mode=payload_mode,
        rng=derive_rng("experiments.butterfly", "source", SOURCE, seed=seed),
        window_generations=window_generations,
        total_generations=total_generations,
    )

    # Each healing replan gets a fresh config epoch (> 0, the epoch of
    # the static pre-failure config), so a pre-failure NC_FORWARD_TAB
    # delayed across the replan is rejected by the daemons instead of
    # clobbering the recovery tables.
    recovery_epoch = [0]

    def _on_dead(name: str) -> None:
        if result.detected_at is None:
            result.detected_at = topo.scheduler.now
        if name not in result.dead_nodes:
            result.dead_nodes.append(name)
        if not recover:
            return
        # Full re-optimization over the surviving topology: feasible-path
        # DFS + LP deployment with every dead node excised.
        recovery: RecoveryPlan = plan_recovery(
            butterfly_graph(),
            session,
            result.dead_nodes,
            RELAYS,
            relay_capacity_mbps=VNF_CODING_MBPS,
            wire_fraction=SIDE_BRANCH_SHARE_MBPS / LINK_MBPS,
            goodput_fraction=SIDE_BRANCH_RATE_MBPS / LINK_MBPS,
        )
        result.recovery_plans.append(recovery)
        if not recovery.feasible:
            return  # typed outcome: no surviving route; ARQ alone from here
        recovery_epoch[0] += 1
        epoch = recovery_epoch[0]
        for relay, table in sorted(recovery.tables.items()):
            if bus.is_registered(relay):
                bus.send(NcForwardTab(target=relay, table_text=table.serialize(), epoch=epoch))
        # Hop shapes: the plan covers every (relay, hop) it routes —
        # zero entries clear stale merge shapes.  Statically installed
        # shapes on hops the new plan does not route get explicit clears
        # too, so no survivor keeps skipping arrivals for a merge that
        # no longer exists.
        shapes_by_relay: dict = {}
        for (relay, hop), skip in recovery.hop_shapes.items():
            shapes_by_relay.setdefault(relay, []).append((session.session_id, hop, skip))
        for relay, hop in static_shapes:
            if relay not in result.dead_nodes and (relay, hop) not in recovery.hop_shapes:
                shapes_by_relay.setdefault(relay, []).append((session.session_id, hop, 0))
        for relay, shapes in sorted(shapes_by_relay.items()):
            if bus.is_registered(relay):
                bus.send(
                    NcSettings(
                        target=relay,
                        session_ids=(session.session_id,),
                        shapes=tuple(sorted(shapes)),
                        epoch=epoch,
                    )
                )
        source.reconfigure(
            data_rate_mbps=recovery.lambda_mbps, link_shares=dict(recovery.source_shares)
        )
        # Re-route the reverse control paths (O2's NACK channel dies
        # with O1 — without this the window would starve silently).
        for receiver_name, app in receivers.items():
            path = recovery.control_paths.get(receiver_name)
            if path is None or len(path) < 2:
                app.retarget_acks(None)  # no reverse route survives
                continue
            app.retarget_acks(path[1])
            for node_name, nxt in zip(path[1:-1], path[2:]):
                _ensure_control_relay(node_name, nxt)

    monitor = HeartbeatMonitor(
        topo.scheduler,
        interval_s=heartbeat_interval_s,
        miss_threshold=miss_threshold,
        on_dead=_on_dead,
    )

    def _controller_endpoint(signal: Signal) -> None:
        if isinstance(signal, NcHeartbeat):
            monitor.beat(signal.vnf_name)

    bus.register("controller", _controller_endpoint)
    for name in RELAYS:
        monitor.watch(name)

    if plan is None:
        plan = FaultPlan([FaultEvent(fail_at_s, FaultKind.NODE_CRASH, fail_node)])
    injector = FaultInjector(topo.scheduler, plan)
    injector.add_topology(topo)
    for name, daemon in daemons.items():
        injector.add_daemon(name, daemon)
    injector.set_bus(bus)
    injector.arm()

    if churn_hook is not None:
        churn_hook(topo.scheduler, bus)
    source.start()
    topo.run(until=duration_s)
    monitor.stop()

    # -- metrics -------------------------------------------------------
    result.applied_faults = list(injector.applied)
    result.undeliverable_signals = len(bus.undeliverable)
    result.heartbeats_sent = {name: d.heartbeats_sent for name, d in daemons.items()}
    if result.detected_at is not None:
        result.detection_latency_s = result.detected_at - fail_at_s
    latencies = []
    for name, app in receivers.items():
        times = sorted(app.completed.values())
        result.decoded_before[name] = sum(1 for t in times if t <= fail_at_s)
        result.decoded_after[name] = sum(1 for t in times if t > fail_at_s)
        stall = 0.0
        for a, b in zip(times, times[1:]):
            stall = max(stall, b - a)
        result.decode_stall_s[name] = stall
        if result.detected_at is not None:
            after = [t for t in times if t > result.detected_at]
            result.post_recovery_throughput_mbps[name] = app.goodput_mbps(start_s=result.detected_at)
            if after:
                latencies.append(after[0] - fail_at_s)
    if result.detected_at is not None and len(latencies) == len(receivers):
        result.recovery_latency_s = max(latencies)
        result.recovered = all(result.decoded_after[name] > 0 for name in receivers)
    result.topology = topo
    result.source = source
    result.receivers = receivers
    result.daemons = daemons
    result.monitor = monitor
    result.bus = bus
    return result


# -- flow level: a VM dies under the controller ---------------------------------


class VmHeartbeatAgent:
    """Stand-in for a daemon on a flow-level VM: beats while it lives."""

    def __init__(self, bus: SignalBus, vm, name: str, interval_s: float):
        self.bus = bus
        self.vm = vm
        self.name = name
        self.beats = 0
        self._ticker: PeriodicEvent | None = bus.scheduler.schedule_every(interval_s, self._tick)

    def _tick(self) -> None:
        if self.vm.state.value not in ("running", "stopping"):
            return  # pending VMs have not booted; failed/terminated are silent
        self.beats += 1
        self.bus.send(NcHeartbeat(target="controller", vnf_name=self.name, beat=self.beats))

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None


@dataclass
class FleetFailoverResult:
    """Outcome of one flow-level fleet failover run."""

    failed_vm: str = ""
    failed_datacenter: str = ""
    failed_at: float = 0.0
    detected_at: float | None = None
    detection_latency_s: float | None = None
    restored_at: float | None = None
    #: failed_at → fleet again meets the VNF requirement (replacement
    #: VM running): the controller's MTTR.
    mttr_s: float | None = None
    vnf_failure_events: list = dataclass_field(default_factory=list)
    throughput_before_mbps: float = 0.0
    throughput_after_mbps: float = 0.0
    quarantined: list = dataclass_field(default_factory=list)
    controller: object = None
    engine: object = None


def run_fleet_failover(
    n_sessions: int = 3,
    fail_at_s: float = 300.0,
    duration_s: float = 600.0,
    heartbeat_interval_s: float = 5.0,
    miss_threshold: int = 3,
    seed: int = 3,
) -> FleetFailoverResult:
    """Kill one in-use VM; measure detection and fleet-repair MTTR."""
    from repro.experiments.dynamic import generate_sessions, build_six_dc_graph, make_controller, _make_session as _mk

    rng = derive_rng("experiments.dynamic", "world", seed=seed)
    specs = generate_sessions(n_sessions, rng)
    graph = build_six_dc_graph(specs, rng)
    controller: Controller = make_controller(graph, seed=seed)
    engine = ScalingEngine(controller)
    controller.enable_failure_detection(
        heartbeat_interval_s=heartbeat_interval_s, miss_threshold=miss_threshold
    )
    scheduler = controller.scheduler
    result = FleetFailoverResult(failed_at=fail_at_s, controller=controller, engine=engine)

    for spec in specs:
        engine.on_session_join(_mk(spec))

    agents: dict[str, VmHeartbeatAgent] = {}

    def _adopt_vms() -> None:
        """Watch every *booted* VM not yet covered by a heartbeat agent.

        Pending VMs are skipped on purpose: boot latency (~35-48 s) is
        far beyond the heartbeat deadline, so watching them early would
        declare every launching VM dead before it ever beats.
        """
        for dc_name, state in controller.fleet.items():
            for vm in state.vms:
                if vm.vm_id not in agents and vm.state.value in ("running", "stopping"):
                    agents[vm.vm_id] = VmHeartbeatAgent(
                        controller.bus, vm, vm.vm_id, heartbeat_interval_s
                    )
                    controller.watch_vnf(vm.vm_id, dc_name, vm)

    # Adopt the initial fleet once it exists, then rescan periodically so
    # recovery-launched replacements get heartbeats (and monitoring) too.
    adopt_ticker = scheduler.schedule_every(heartbeat_interval_s, _adopt_vms, first_delay=0.001)

    def _fail_one() -> None:
        for dc_name, state in controller.fleet.items():
            usable = state.usable()
            if not usable:
                continue
            vm = usable[0]
            provider = controller.providers[dc_name]
            result.failed_vm = vm.vm_id
            result.failed_datacenter = dc_name
            result.throughput_before_mbps = controller.achieved_total_throughput_mbps()
            provider.fail_vm(vm.vm_id)
            return
        raise RuntimeError("no usable VM to fail")

    scheduler.schedule_at(fail_at_s, _fail_one)

    def _check_restored() -> None:
        if result.restored_at is not None or result.failed_vm == "":
            return
        if not any(f["vnf"] == result.failed_vm for f in controller.failures):
            return  # not yet declared dead; the fleet has not reacted
        required = controller.required_vnf_counts()
        running = controller.running_vnf_counts()
        if all(running.get(name, 0) >= count for name, count in required.items()):
            result.restored_at = scheduler.now

    restore_ticker = scheduler.schedule_every(1.0, _check_restored, first_delay=fail_at_s + 1.0)

    scheduler.run(until=duration_s)
    adopt_ticker.cancel()
    restore_ticker.cancel()
    for agent in agents.values():
        agent.stop()
    if controller.monitor is not None:
        controller.monitor.stop()
    detected = next((f["time"] for f in controller.failures if f["vnf"] == result.failed_vm), None)
    if detected is not None:
        result.detected_at = detected
        result.detection_latency_s = detected - fail_at_s
    if result.restored_at is not None:
        result.mttr_s = result.restored_at - fail_at_s
    result.vnf_failure_events = [e for e in engine.events if e.kind == "vnf_failure"]
    result.throughput_after_mbps = controller.achieved_total_throughput_mbps()
    result.quarantined = sorted(controller.disabled_datacenters)
    return result
