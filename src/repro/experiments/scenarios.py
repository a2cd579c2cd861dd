"""Hostile-link scenario presets: GEO satellite and IoT relay chain.

Two deployment profiles the adaptive-redundancy loop (DESIGN.md §15) is
aimed at, both chains of the paper's coding VNFs over links far worse
than the clean data-center paths of §V:

- **GEO satellite** — one recoding VNF on the satellite, ≈125 ms of
  propagation per space leg (≈250 ms one-way end to end, the classic
  geostationary budget), and highly correlated burst loss on both legs
  (rain fade and scintillation hit runs of packets, not single ones).
  The long feedback delay is exactly where per-generation NACK repair
  hurts most — a repair costs a full second round trip — so redundancy
  tuned to the measured loss pays for itself immediately.
- **IoT relay chain** — a comnetsemu-style multi-hop chain (sensor →
  three relays → gateway) of 2 Mbps links with small frames, burst
  loss on every hop, and netem-grade 0.25 correlation.  No single hop
  is terrible, but four of them compound.

Both presets run the same stack the butterfly experiments use — real
``CodingVnf`` relays, ``VnfDaemon`` control agents on a ``SignalBus``,
``NcSourceApp``/``NcReceiverApp`` with windowed ARQ — plus, in
``adaptive`` mode, a :class:`~repro.adapt.reporter.LinkReporter` at the
receiver feeding an
:class:`~repro.adapt.controller.AdaptiveRedundancyController`.

:func:`loss_sweep` is the Fig. 8/9-shaped experiment the issue asks
for: adaptive vs fixed redundancy vs the Direct-TCP baseline across
0–30 % burst loss, seeded and bit-identically replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.adapt.controller import AdaptiveRedundancyController, AdaptPolicy
from repro.adapt.reporter import LinkReporter, receiver_probe
from repro.baselines.tcp import TcpAimdSimulator
from repro.core.dataplane import Arq, LiveDeployment, bring_up, chain_wiring
from repro.core.session import CodingConfig, MulticastSession
from repro.core.signals import SignalBus
from repro.core.vnf import VnfRole
from repro.faults import FaultPlan
from repro.net.loss import BurstLoss
from repro.net.topology import LinkSpec, Topology
from repro.rlnc.redundancy import RedundancyPolicy
from repro.util.rng import derive_rng

#: Registry handle the fault injector uses for the adaptive reporter.
REPORTER_HANDLE = "reporter"

#: Static redundancy of ``mode="fixed"``: the paper's NC1.
FIXED_EXTRA = 1


@dataclass(frozen=True)
class ScenarioPreset:
    """One hostile-link deployment profile (a chain of coding VNFs)."""

    name: str
    #: Chain node names: source, relays..., receiver.
    nodes: tuple[str, ...]
    #: Per-hop one-way propagation delay, ms (len == len(nodes) - 1).
    hop_delay_ms: tuple[float, ...]
    #: Hop indices carrying the burst loss (others stay clean).
    lossy_hops: tuple[int, ...]
    #: netem-style correlation of the burst loss on those hops.
    loss_correlation: float
    capacity_mbps: float
    data_rate_mbps: float
    block_bytes: int
    blocks_per_generation: int
    #: AIMD policy for adaptive mode (generation sizes, clamps, clocks).
    policy: AdaptPolicy
    bus_latency_s: float = 0.05
    report_interval_s: float = 0.25
    window_generations: int = 64

    @property
    def relays(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def receiver(self) -> str:
        return self.nodes[-1]

    @property
    def one_way_delay_s(self) -> float:
        return sum(self.hop_delay_ms) / 1e3

    def per_hop_loss(self, end_to_end_loss: float) -> float:
        """Per-lossy-hop rate composing to the given end-to-end loss."""
        if not 0.0 <= end_to_end_loss < 1.0:
            raise ValueError("end-to-end loss must be in [0, 1)")
        if not self.lossy_hops or end_to_end_loss == 0.0:
            return 0.0
        return 1.0 - (1.0 - end_to_end_loss) ** (1.0 / len(self.lossy_hops))


#: GEO satellite relay: ≈250 ms one-way, high-correlation burst fades
#: on both space legs.  The generous link capacity reflects a modern
#: HTS transponder share; the session rate is what the redundancy
#: headroom is budgeted against (ceiling 8 extra on 8 blocks = 2×).
GEO_SATELLITE = ScenarioPreset(
    name="geo-satellite",
    nodes=("ground-a", "geo-sat", "ground-b"),
    hop_delay_ms=(125.0, 125.0),
    lossy_hops=(0, 1),
    loss_correlation=0.6,
    capacity_mbps=20.0,
    data_rate_mbps=2.0,
    block_bytes=1024,
    blocks_per_generation=16,
    policy=AdaptPolicy(
        max_extra=8,
        blocks_hostile=8,
        blocks_clean=16,
        clean_windows=4,
        report_timeout_s=2.0,
    ),
    # Control signals ride the satellite too: reports and retunes pay
    # the one-way propagation delay, so the loop reacts at GEO speed.
    bus_latency_s=0.25,
    report_interval_s=0.25,
)

#: comnetsemu-style IoT relay chain: sensor → 3 relays → gateway over
#: 2 Mbps links with small frames; every hop carries (mildly) bursty
#: loss, and four hops compound.
IOT_RELAY_CHAIN = ScenarioPreset(
    name="iot-relay-chain",
    nodes=("sensor", "iot-relay-1", "iot-relay-2", "iot-relay-3", "cloud-gw"),
    hop_delay_ms=(25.0, 25.0, 25.0, 25.0),
    lossy_hops=(0, 1, 2, 3),
    loss_correlation=0.25,
    capacity_mbps=2.0,
    data_rate_mbps=0.4,
    block_bytes=256,
    blocks_per_generation=16,
    policy=AdaptPolicy(
        max_extra=8,
        blocks_hostile=8,
        blocks_clean=16,
        clean_windows=4,
        report_timeout_s=2.0,
    ),
    bus_latency_s=0.02,
    report_interval_s=0.25,
)

PRESETS: dict[str, ScenarioPreset] = {
    GEO_SATELLITE.name: GEO_SATELLITE,
    IOT_RELAY_CHAIN.name: IOT_RELAY_CHAIN,
}


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (one mode, one loss point)."""

    preset: str = ""
    mode: str = ""
    loss: float = 0.0
    duration_s: float = 0.0
    goodput_mbps: float = 0.0
    decoded_generations: int = 0
    decoded_bytes: int = 0
    sent_generations: int = 0
    nacks_sent: int = 0
    nacks_suppressed: int = 0
    repair_packets: int = 0
    corrupt_dropped: int = 0
    #: adaptive mode only: retunes the controller pushed / the data
    #: plane applied, and the loop's state history.
    retunes_pushed: int = 0
    retunes_applied: int = 0
    stall_entries: int = 0
    final_extra: int = 0
    final_blocks: int = 0
    transitions: list = dataclass_field(default_factory=list)
    applied_faults: list = dataclass_field(default_factory=list)
    undeliverable_signals: int = 0
    dropped_signals: int = 0
    # Live objects for tests and the soak's fingerprint.
    source: object = None
    receiver: object = None
    controller: object = None
    reporter: object = None
    daemons: dict = dataclass_field(default_factory=dict)
    bus: object = None
    topology: object = None


def _wire_shares(preset: ScenarioPreset, config: CodingConfig) -> dict:
    """Source link share expressing λ·(k+extra)/k on the chain's first hop.

    Redundancy is carried through the conceptual-flow share: the source
    emits exactly ``k + extra`` packets per generation when its single
    outgoing share totals that multiple of the goodput rate λ.
    """
    wire = preset.data_rate_mbps * config.packets_per_generation() / config.blocks_per_generation
    return {preset.nodes[1]: wire}


def build_chain(preset: ScenarioPreset, loss: float, seed: int) -> Topology:
    """The preset's chain topology with per-hop burst loss installed."""
    topo = Topology(rng=derive_rng("experiments.scenarios", preset.name, seed=seed))
    per_hop = preset.per_hop_loss(loss)
    for name in preset.nodes:
        topo.add_node(name)
    for hop, (a, b) in enumerate(zip(preset.nodes, preset.nodes[1:])):
        loss_model = (
            BurstLoss(per_hop, correlation=preset.loss_correlation)
            if hop in preset.lossy_hops and per_hop > 0
            else None
        )
        topo.add_link(
            LinkSpec(a, b, preset.capacity_mbps, preset.hop_delay_ms[hop], loss=loss_model)
        )
        # The reverse direction carries ACK/NACK control traffic only;
        # it shares the forward hop's fate in spirit but control frames
        # are tiny, so it is modelled clean (the forward loss already
        # exercises every repair path).
        topo.add_link(LinkSpec(b, a, preset.capacity_mbps, preset.hop_delay_ms[hop]))
    return topo


def run_scenario(
    preset: ScenarioPreset,
    mode: str = "adaptive",
    loss: float = 0.0,
    duration_s: float = 12.0,
    seed: int = 1,
    plan: FaultPlan | None = None,
) -> ScenarioResult:
    """One chain transfer under the preset's loss profile.

    ``mode="adaptive"`` runs the full feedback loop (reporter at the
    receiver, AIMD controller retuning redundancy and generation size
    over the bus); ``mode="fixed"`` pins the paper-style static
    redundancy :data:`FIXED_EXTRA` (NC1).  ``plan`` lets the
    chaos soak inject faults — chain links, relay daemons and the
    adaptive reporter (handle ``"reporter"``) are all registered.
    """
    if mode not in ("adaptive", "fixed"):
        raise ValueError("mode must be 'adaptive' or 'fixed'")
    topo = build_chain(preset, loss, seed)
    scheduler = topo.scheduler
    bus = SignalBus(scheduler, latency_s=preset.bus_latency_s)

    extra0 = 0 if mode == "adaptive" else FIXED_EXTRA
    config = CodingConfig(
        block_bytes=preset.block_bytes,
        blocks_per_generation=preset.blocks_per_generation,
        redundancy=RedundancyPolicy(extra0),
    )
    session = MulticastSession(
        source=preset.source, receivers=[preset.receiver], coding=config
    )

    shares = _wire_shares(preset, config)
    live = bring_up(
        LiveDeployment(topo),
        session,
        chain_wiring(session, preset.nodes, VnfRole.RECODER, preset.data_rate_mbps, shares),
        stream=("experiments.scenarios", preset.name),
        seed=seed,
        bus=bus,
        arq=Arq(
            window_generations=preset.window_generations,
            ack_interval_s=0.05,
            stall_generations=4,
            stall_timeout_s=max(0.3, 2.5 * preset.one_way_delay_s),
        ),
    )
    source, receivers = live.endpoints(session.session_id)
    receiver = receivers[preset.receiver]

    controller: AdaptiveRedundancyController | None = None
    reporter: LinkReporter | None = None
    if mode == "adaptive":

        def _apply_source(new_config: CodingConfig) -> None:
            source.retune_coding(new_config, link_shares=_wire_shares(preset, new_config))

        controller = AdaptiveRedundancyController(
            bus,
            scheduler,
            session.session_id,
            config,
            daemon_targets=tuple(preset.relays),
            apply_source=_apply_source,
            policy=preset.policy,
        )
        reporter = LinkReporter(
            preset.receiver,
            session.session_id,
            bus,
            scheduler,
            receiver_probe(receiver, lambda: source.session.coding.packets_per_generation()),
            interval_s=preset.report_interval_s,
        )

    injector = None
    if plan is not None:
        handles = {REPORTER_HANDLE: reporter} if reporter is not None else {}
        injector = live.arm_faults(plan, bus, **handles)

    source.start()
    topo.run(until=duration_s)
    if controller is not None:
        controller.stop()
    if reporter is not None:
        reporter.stop()
    receiver.stop_acks()

    result = ScenarioResult(
        preset=preset.name,
        mode=mode,
        loss=loss,
        duration_s=duration_s,
        goodput_mbps=receiver.goodput_mbps(end_s=duration_s),
        decoded_generations=len(receiver.completed),
        decoded_bytes=sum(receiver.completed_bytes.values()),
        sent_generations=source.sent_generations,
        nacks_sent=receiver.nacks_sent,
        nacks_suppressed=receiver.nacks_suppressed,
        repair_packets=source.repair_packets,
        corrupt_dropped=receiver.corrupt_dropped,
        undeliverable_signals=bus.undeliverable_count,
        dropped_signals=bus.dropped_count,
        source=source,
        receiver=receiver,
        controller=controller,
        reporter=reporter,
        daemons=live.daemons,
        bus=bus,
        topology=topo,
    )
    final = source.session.coding
    result.final_extra = final.redundancy.extra
    result.final_blocks = final.blocks_per_generation
    if controller is not None:
        result.retunes_pushed = controller.retunes_pushed
        result.stall_entries = controller.stall_entries
        result.transitions = list(controller.transitions)
    result.retunes_applied = sum(vnf.retunes_applied for vnfs in live.vnfs.values() for vnf in vnfs)
    if injector is not None:
        result.applied_faults = list(injector.applied)
    return result


def tcp_baseline_mbps(
    preset: ScenarioPreset, loss: float, duration_s: float = 12.0, seed: int = 1
) -> float:
    """The Direct-TCP goodput on the preset's path at the given loss.

    Uses :class:`repro.baselines.tcp.TcpAimdSimulator` with the chain's
    end-to-end RTT (twice the one-way propagation) and the stationary
    loss rate — which :meth:`BurstLoss.expected_loss` proves is the
    configured marginal rate — capped by the session's own data rate
    (TCP cannot out-deliver the application either).
    """
    rtt_s = max(1e-3, 2.0 * preset.one_way_delay_s)
    sim = TcpAimdSimulator(
        capacity_mbps=preset.capacity_mbps,
        rtt_s=rtt_s,
        loss_rate=BurstLoss(loss, preset.loss_correlation).expected_loss() if loss > 0 else 0.0,
    )
    rng = derive_rng("experiments.scenarios.tcp", preset.name, seed)
    mean = float(sim.run(duration_s, rng)["mean_mbps"])
    return min(mean, preset.data_rate_mbps)


def loss_sweep(
    preset: ScenarioPreset,
    losses: tuple[float, ...] = (0.0, 0.05, 0.15, 0.30),
    duration_s: float = 12.0,
    seed: int = 1,
) -> list:
    """Adaptive vs fixed vs TCP goodput across the burst-loss range."""
    rows = []
    for loss in losses:
        adaptive = run_scenario(preset, "adaptive", loss, duration_s, seed)
        fixed = run_scenario(preset, "fixed", loss, duration_s, seed)
        rows.append(
            {
                "loss": loss,
                "adaptive_mbps": adaptive.goodput_mbps,
                "fixed_mbps": fixed.goodput_mbps,
                "tcp_mbps": tcp_baseline_mbps(preset, loss, duration_s, seed),
                "adaptive_retunes": adaptive.retunes_pushed,
                "adaptive_final_extra": adaptive.final_extra,
                "adaptive_final_blocks": adaptive.final_blocks,
                "adaptive_nacks": adaptive.nacks_sent,
                "fixed_nacks": fixed.nacks_sent,
            }
        )
    return rows
