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

import dataclasses
from dataclasses import dataclass, field as dataclass_field

from repro.core.controller import Controller, HeartbeatMonitor
from repro.core.dataplane import Arq, LiveDeployment, RelayWiring, bring_up, config_signals
from repro.core.healing import plan_recovery
from repro.core.scaling import ScalingEngine
from repro.core.signals import NcHeartbeat, Signal, SignalBus
from repro.experiments.butterfly import (
    RELAYS,
    STREAM,
    VNF_CODING_MBPS,
    _make_session,
    _nc_source_shares,
    build_butterfly,
    butterfly_graph,
    butterfly_wiring,
)
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.net.events import PeriodicEvent
from repro.rlnc.redundancy import RedundancyPolicy
from repro.util.rng import derive_rng

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

    # Control plane: one daemon per relay, emitting heartbeats.  Control
    # path: re-targetable relay objects so recovery can move the reverse
    # ACK/NACK route off a dead node; with relay_repair, relays that are
    # also recoding VNFs answer NACKs from local coded state.
    static = butterfly_wiring(
        session, rate_mbps, _nc_source_shares(rate_mbps, blocks_per_generation, 0)
    )
    live = bring_up(
        LiveDeployment(topo),
        session,
        static,
        stream=STREAM,
        seed=seed,
        payload_mode=payload_mode,
        coding_mbps=VNF_CODING_MBPS,
        bus=bus,
        heartbeat_interval_s=heartbeat_interval_s,
        arq=Arq(window_generations=window_generations),
        relay_repair=relay_repair,
        total_generations=total_generations,
    )
    source, receivers = live.endpoints(session.session_id)
    for app in receivers.values():
        app.retain_decoded = retain_decoded  # read when a generation decodes

    result = FailoverResult(fail_node=fail_node, failed_at=fail_at_s)
    result.control_relays = live.control_relays

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
        recovery = plan_recovery(
            butterfly_graph(),
            session,
            result.dead_nodes,
            RELAYS,
            relay_capacity_mbps=VNF_CODING_MBPS,
        )
        result.recovery_plans.append(recovery)
        if recovery.wiring is None:
            return  # typed outcome: no surviving route; ARQ alone from here
        wiring = recovery.wiring
        recovery_epoch[0] += 1
        # Hop shapes: the plan covers every (relay, hop) it routes —
        # zero entries clear stale merge shapes.  Statically installed
        # shapes on hops the new plan does not route get explicit clears
        # too, so no survivor keeps skipping arrivals for a merge that
        # no longer exists.
        relays = dict(wiring.relays)
        for relay, wired in static.relays.items():
            routed = relays.get(relay, RelayWiring(wired.role, ()))
            stale = {hop: 0 for hop in wired.skips if hop not in routed.skips}
            if stale and relay not in result.dead_nodes:
                relays[relay] = dataclasses.replace(routed, skips={**routed.skips, **stale})
        pushed = dataclasses.replace(wiring, relays=relays)
        pushes = {
            relay: config_signals(relay, [pushed], fence=0, epoch=recovery_epoch[0])
            for relay in sorted(relays)
            if bus.is_registered(relay)
        }
        for relay, (_, table) in pushes.items():
            if relays[relay].next_hops:
                bus.send(table)
        for settings, _ in pushes.values():
            bus.send(settings)
        source.reconfigure(
            data_rate_mbps=wiring.lambda_mbps, link_shares=dict(wiring.source_shares)
        )
        # Re-route the reverse control paths (O2's NACK channel dies
        # with O1 — without this the window would starve silently).
        for receiver_name, app in receivers.items():
            path = wiring.control_paths.get(receiver_name, ())
            app.retarget_acks(path[1] if len(path) >= 2 else None)  # None: no reverse route survives
        live.route_feedback(wiring.control_paths, relay_repair)

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
    injector = live.arm_faults(plan, bus)

    if churn_hook is not None:
        churn_hook(topo.scheduler, bus)
    source.start()
    topo.run(until=duration_s)
    monitor.stop()

    # -- metrics -------------------------------------------------------
    result.applied_faults = list(injector.applied)
    result.undeliverable_signals = bus.undeliverable_count
    result.heartbeats_sent = {name: d.heartbeats_sent for name, d in live.daemons.items()}
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
    result.daemons = live.daemons
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


# The flow-level run: three sessions over ten sim-minutes, one VM killed
# half-way, VM agents beating every 5 s (boot takes ~35-48 s).
FLEET_SESSIONS = 3
FLEET_FAIL_AT_S = 300.0
FLEET_DURATION_S = 600.0
FLEET_HEARTBEAT_INTERVAL_S = 5.0


def run_fleet_failover(seed: int = 3) -> FleetFailoverResult:
    """Kill one in-use VM; measure detection and fleet-repair MTTR."""
    from repro.experiments.dynamic import generate_sessions, build_six_dc_graph, make_controller, _make_session as _mk

    rng = derive_rng("experiments.dynamic", "world", seed=seed)
    specs = generate_sessions(FLEET_SESSIONS, rng)
    graph = build_six_dc_graph(specs, rng)
    controller: Controller = make_controller(graph, seed=seed)
    engine = ScalingEngine(controller)
    controller.enable_failure_detection(heartbeat_interval_s=FLEET_HEARTBEAT_INTERVAL_S)
    scheduler = controller.scheduler
    result = FleetFailoverResult(failed_at=FLEET_FAIL_AT_S, controller=controller, engine=engine)

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
                        controller.bus, vm, vm.vm_id, FLEET_HEARTBEAT_INTERVAL_S
                    )
                    controller.watch_vnf(vm.vm_id, dc_name, vm)

    # Adopt the initial fleet once it exists, then rescan periodically so
    # recovery-launched replacements get heartbeats (and monitoring) too.
    adopt_ticker = scheduler.schedule_every(FLEET_HEARTBEAT_INTERVAL_S, _adopt_vms, first_delay=0.001)

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

    scheduler.schedule_at(FLEET_FAIL_AT_S, _fail_one)

    def _check_restored() -> None:
        if result.restored_at is not None or result.failed_vm == "":
            return
        if not any(f["vnf"] == result.failed_vm for f in controller.failures):
            return  # not yet declared dead; the fleet has not reacted
        required = controller.required_vnf_counts()
        running = controller.running_vnf_counts()
        if all(running.get(name, 0) >= count for name, count in required.items()):
            result.restored_at = scheduler.now

    restore_ticker = scheduler.schedule_every(1.0, _check_restored, first_delay=FLEET_FAIL_AT_S + 1.0)

    scheduler.run(until=FLEET_DURATION_S)
    adopt_ticker.cancel()
    restore_ticker.cancel()
    for agent in agents.values():
        agent.stop()
    if controller.monitor is not None:
        controller.monitor.stop()
    detected = next((f["time"] for f in controller.failures if f["vnf"] == result.failed_vm), None)
    if detected is not None:
        result.detected_at = detected
        result.detection_latency_s = detected - FLEET_FAIL_AT_S
    if result.restored_at is not None:
        result.mttr_s = result.restored_at - FLEET_FAIL_AT_S
    result.vnf_failure_events = [e for e in engine.events if e.kind == "vnf_failure"]
    result.throughput_after_mbps = controller.achieved_total_throughput_mbps()
    result.quarantined = sorted(controller.disabled_datacenters)
    return result
