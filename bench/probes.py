"""Isolated layer probes: per-call cost of each layer's public functions.

Each probe builds fixed inputs from the seed, warms the call once, then
times ``REPEATS`` batches of it with ``perf_counter`` and reports the
median batch, divided down to one unit of work (a packet, a generation,
an event, a call).  Probes touch only public names of ``repro``; what
they measure is listed, with the end-to-end metric it should move, in
``bench.metrics.PER_LAYER``.

The whole set is sized to finish in a few seconds, because the driver
reruns it with every traced run.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable

import numpy as np

from bench.calibrate import kernel_seconds, speed_factor
from repro.adapt.controller import AdaptiveRedundancyController, AdaptPolicy
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.signals import NcHeartbeat, NcLinkReport, SignalBus
from repro.core.vnf import NC_PORT, CodingVnf, VnfRole
from repro.experiments.butterfly import RELAYS, butterfly_graph
from repro.fleet.churn import SessionSpec
from repro.fleet.manager import FleetManager, fleet_of
from repro.fleet.soak import SOAK_DC_CITIES
from repro.gf import GF256, gf_inverse, is_invertible
from repro.lp.simplex import solve_simplex
from repro.net.events import EventScheduler
from repro.net.loss import BurstLoss, LossModel
from repro.net.packet import Datagram
from repro.net.topology import LinkSpec, Topology, os3e_graph, os3e_latency_ms
from repro.rlnc import CodedPacket, Decoder, Encoder, Generation, Recoder
from repro.routing.paths import enumerate_feasible_paths
from repro.shard.controller import ShardController
from repro.shard.placement import place_controllers

REPEATS = 5
BURST = 64          # packets per batched kernel call
BLOCK_BYTES = 1460  # MTU-filling block
STANDIN_BYTES = 4   # the simulator's coefficients-only payload
SESSION = 1

#: Host cities sessions are drawn from (PoPs without a data center).
HOST_CITIES = (
    "Portland", "Los Angeles", "Salt Lake City", "Kansas City", "Dallas", "Memphis",
    "Nashville", "Pittsburgh", "Boston", "Raleigh", "Jacksonville", "Minneapolis",
)  # fmt: skip
FLEET_LIVE_SESSIONS = 200
FLEET_SAMPLES = 40


def _ns_per_unit(fn: Callable[[], object], units: int = 1, batch_s: float = 0.01) -> float:
    """Median ns per unit of work over ``REPEATS`` batches of about ``batch_s``."""
    start = time.perf_counter()
    fn()  # warms lazy tables and caches, and sizes the batch
    once = time.perf_counter() - start
    number = max(1, int(batch_s / max(once, 1e-9)))
    gc.collect()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e9 / units


def _percentile_ns(samples_s: list[float], q: float) -> float:
    return float(np.percentile(samples_s, q) * 1e9)


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- gf ---------------------------------------------------------------------


def _gf(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for k in (4, 32):
        blocks = GF256.random_elements(rng, (k, BLOCK_BYTES))
        coeffs = GF256.random_nonzero(rng, (BURST, k))
        out[f"gf.matmul_ns_per_pkt.k{k}"] = _ns_per_unit(lambda: GF256.matmul(coeffs, blocks), BURST)
    blocks4 = GF256.random_elements(rng, (4, BLOCK_BYTES))
    coeffs4 = GF256.random_nonzero(rng, 4)
    out["gf.linear_combination_ns.k4"] = _ns_per_unit(lambda: GF256.linear_combination(coeffs4, blocks4))
    out["gf.random_elements_ns.n4"] = _ns_per_unit(lambda: GF256.random_elements(rng, 4))
    matrix = GF256.random_elements(rng, (32, 32))
    while not is_invertible(GF256, matrix):
        matrix = GF256.random_elements(rng, (32, 32))
    out["gf.inverse_ns.k32"] = _ns_per_unit(lambda: gf_inverse(GF256, matrix))
    return out


# -- rlnc + wire -------------------------------------------------------------


def _generation(rng: np.random.Generator, k: int, block_bytes: int, generation_id: int = 0) -> Generation:
    return Generation(generation_id, rng.integers(0, 256, (k, block_bytes), dtype=np.uint8))


def _decode_generation(packets: list[CodedPacket], k: int, block_bytes: int) -> Generation:
    decoder = Decoder(SESSION, packets[0].generation_id, k, block_bytes)
    for packet in packets:
        if decoder.complete:
            break
        decoder.add(packet)
    return decoder.decode()


def _rlnc(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for k in (4, 32):
        generation = _generation(rng, k, BLOCK_BYTES)
        encoder = Encoder(SESSION, generation, systematic=False, rng=rng)
        out[f"rlnc.encode_ns_per_pkt.k{k}"] = _ns_per_unit(lambda: encoder.coded_packets(BURST), BURST)
        packets = encoder.coded_packets(k + 2)
        recoder = Recoder(SESSION, 0, k, rng=rng)
        for packet in packets[:k]:
            recoder.add(packet)
        out[f"rlnc.recode_ns_per_pkt.k{k}"] = _ns_per_unit(recoder.recode)
        if _decode_generation(packets, k, BLOCK_BYTES) != generation:
            raise AssertionError(f"decode probe k={k} did not reproduce its generation")
        out[f"rlnc.decode_ns_per_gen.k{k}"] = _ns_per_unit(
            lambda: _decode_generation(packets, k, BLOCK_BYTES)
        )

    # The simulator's hot case: 4-byte stand-in payloads, k = 4.
    standin = Encoder(SESSION, _generation(rng, 4, STANDIN_BYTES), systematic=False, rng=rng).coded_packets(4)
    recoder = Recoder(SESSION, 0, 4, rng=rng)
    for packet in standin:
        recoder.add(packet)
    out["rlnc.recode_ns_per_pkt.k4_b4"] = _ns_per_unit(recoder.recode)

    def add_four() -> None:
        decoder = Decoder(SESSION, 0, 4, STANDIN_BYTES)
        for packet in standin:
            decoder.add(packet)

    out["rlnc.decode_add_ns.k4_b4"] = _ns_per_unit(add_four, 4)
    return out


def _wire(rng: np.random.Generator) -> dict[str, float]:
    packet = Encoder(SESSION, _generation(rng, 4, BLOCK_BYTES), systematic=False, rng=rng).coded_packets(1)[0]
    image = packet.encode()
    sealed = CodedPacket.decode(image).seal()
    return {
        "wire.encode_ns.k4": _ns_per_unit(packet.encode),
        "wire.decode_ns.k4": _ns_per_unit(lambda: CodedPacket.decode(image)),
        "wire.verify_ns.k4": _ns_per_unit(sealed.verify),
    }


# -- net.events / net.link ----------------------------------------------------

EVENTS = 20_000


def _noop() -> None:
    pass


def _schedule_and_run() -> None:
    scheduler = EventScheduler()
    events = [scheduler.schedule(i * 1e-6, _noop) for i in range(EVENTS)]
    for event in events[::3]:
        event.cancel()
    scheduler.run()


def _timer_churn() -> None:
    # A retry timer's life: armed, cancelled by progress, re-armed.
    scheduler = EventScheduler()
    for i in range(EVENTS // 2):
        scheduler.schedule(1.0 + i * 1e-6, _noop).cancel()
        scheduler.schedule(2.0 + i * 1e-6, _noop)
    scheduler.run()


def _events() -> dict[str, float]:
    return {
        "net.events.schedule_run_ns_per_event": _ns_per_unit(_schedule_and_run, EVENTS, batch_s=0.0),
        "net.events.timer_churn_ns_per_event": _ns_per_unit(_timer_churn, EVENTS, batch_s=0.0),
    }


def _link_probe(rng: np.random.Generator, loss: LossModel | None, jitter_s: float) -> float:
    topo = Topology(rng=rng)
    sender = topo.add_node("a")
    receiver = topo.add_node("b")
    topo.add_link(LinkSpec("a", "b", 1_000.0, 1.0, loss=loss, jitter_s=jitter_s))
    delivered = []
    receiver.listen(NC_PORT, delivered.append)
    burst = 100  # 150 kB at 1 Gbps: never reaches the drop-tail limit

    def send_burst() -> None:
        for _ in range(burst):
            sender.send("b", None, 1476, dst_port=NC_PORT)
        topo.run()

    cost = _ns_per_unit(send_burst, burst)
    if not delivered:
        raise AssertionError("link probe delivered nothing")
    return cost


def _link(rng: np.random.Generator) -> dict[str, float]:
    return {
        "net.link.send_deliver_ns_per_pkt.clean": _link_probe(rng, None, 0.0),
        "net.link.send_deliver_ns_per_pkt.burstloss_jitter": _link_probe(
            rng, BurstLoss(0.10, correlation=0.25), 0.003
        ),
    }


# -- core.vnf ---------------------------------------------------------------------


def _vnf_probe(rng: np.random.Generator, role: VnfRole, next_hops: int) -> float:
    """ns per packet injected into a VNF and carried to its next hops."""
    topo = Topology(rng=rng)
    vnf = CodingVnf("vnf", topo.scheduler, rng=rng, payload_mode="coefficients-only")
    topo.add_node(vnf)
    hops = [f"hop{i}" for i in range(next_hops)]
    for hop in hops:
        topo.add_node(hop)
        topo.add_link(LinkSpec("vnf", hop, 10_000.0, 1.0))
    vnf.configure_session(SESSION, role, CodingConfig())
    vnf.forwarding_table = ForwardingTable({SESSION: hops})
    generations_per_batch = 25
    next_generation = [0]

    def make_batch() -> list[Datagram]:
        batch = []
        for _ in range(generations_per_batch):
            generation = _generation(rng, 4, STANDIN_BYTES, next_generation[0])
            next_generation[0] += 1
            for packet in Encoder(SESSION, generation, rng=rng).next_packets(4):
                batch.append(Datagram("src", "vnf", packet, 1476, dst_port=NC_PORT))
        return batch

    # Fresh generations every batch (a repeated packet would be dropped as
    # a duplicate), built outside the timed region.
    samples = []
    for _ in range(REPEATS + 1):
        batch = make_batch()
        start = time.perf_counter()
        for dgram in batch:
            vnf.inject(dgram)
        topo.run()
        samples.append((time.perf_counter() - start) / len(batch))
    if vnf.processed_packets != (REPEATS + 1) * generations_per_batch * 4:
        raise AssertionError("VNF probe lost packets")
    return statistics.median(samples[1:]) * 1e9


def _vnf(rng: np.random.Generator) -> dict[str, float]:
    return {
        "core.vnf.forward_ns_per_pkt": _vnf_probe(rng, VnfRole.FORWARDER, 1),
        "core.vnf.recode_forward_ns_per_pkt": _vnf_probe(rng, VnfRole.RECODER, 2),
        "core.vnf.decode_ns_per_pkt": _vnf_probe(rng, VnfRole.DECODER, 0),
    }


# -- core.signals / adapt -------------------------------------------------------


def _signals() -> dict[str, float]:
    scheduler = EventScheduler()
    bus = SignalBus(scheduler)
    seen = []
    bus.register("daemon", seen.append)
    burst = 100

    def send_burst() -> None:
        for beat in range(burst):
            bus.send(NcHeartbeat(target="daemon", vnf_name="daemon", beat=beat))
        scheduler.run()

    cost = _ns_per_unit(send_burst, burst)
    if not seen:
        raise AssertionError("bus probe delivered nothing")
    return {"core.signals.bus_send_deliver_ns": cost}


def _adapt() -> dict[str, float]:
    """One link report in, one retune out to three daemons, delivered."""
    scheduler = EventScheduler()
    bus = SignalBus(scheduler)
    daemons = ("relay-1", "relay-2", "relay-3")
    delivered = []
    for name in daemons:
        bus.register(name, delivered.append)
    controller = AdaptiveRedundancyController(
        bus,
        scheduler,
        SESSION,
        CodingConfig(blocks_per_generation=16),
        daemon_targets=daemons,
        apply_source=lambda config: None,
        # One clean window suffices to back off, so lossy and clean
        # reports alternate between two configs and every report retunes.
        policy=AdaptPolicy(clean_windows=1),
    )
    epoch = [0]

    def report_pair() -> None:
        for loss, nacks in ((0.2, 1), (0.0, 0)):
            epoch[0] += 1
            controller.handle_signal(
                NcLinkReport(
                    target=controller.name,
                    reporter="rx",
                    session_id=SESSION,
                    report_epoch=epoch[0],
                    loss_ewma=loss,
                    packets=100,
                    generations=6,
                    nacks=nacks,
                )
            )
        scheduler.run(until=scheduler.now + 0.1)

    cost = _ns_per_unit(report_pair, 2)
    controller.stop()
    if controller.retunes_pushed != epoch[0] or len(delivered) != 3 * epoch[0]:
        raise AssertionError("adapt probe: a report did not produce a delivered retune")
    return {"adapt.report_to_retune_ns": cost}


# -- lp + routing ---------------------------------------------------------------


def _lp(rng: np.random.Generator) -> dict[str, float]:
    # A seeded packing LP of the fleet's shape: all rows <=, rhs > 0.
    n, m = 24, 30
    a = rng.uniform(0.1, 1.0, (m, n)) * (rng.random((m, n)) < 0.3)
    a[rng.integers(0, m, n), np.arange(n)] += 0.5  # every column is bounded by some row
    b = rng.uniform(5.0, 10.0, m)
    c = -rng.uniform(0.5, 1.5, n)
    cold = solve_simplex(c, a_ub=a, b_ub=b)
    warm = solve_simplex(c, a_ub=a, b_ub=b * 1.01, initial_basis=cold.basis)
    if not (cold.success and warm.success and warm.warm_started):
        raise AssertionError("simplex probe: cold or warm solve failed")

    graph = butterfly_graph()
    problem = DeploymentProblem(graph, [DataCenterSpec(name, 900, 900, 900) for name in RELAYS])
    session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
    demand = problem.build_demand(session)
    return {
        "lp.simplex_cold_ns": _ns_per_unit(lambda: solve_simplex(c, a_ub=a, b_ub=b)),
        "lp.simplex_warm_ns": _ns_per_unit(
            lambda: solve_simplex(c, a_ub=a, b_ub=b * 1.01, initial_basis=cold.basis)
        ),
        "lp.highs_solve_ns": _ns_per_unit(lambda: problem.solve([demand])),
    }


def _routing() -> dict[str, float]:
    graph = os3e_graph()

    def coast_to_coast() -> list[object]:
        return list(enumerate_feasible_paths(graph, "Seattle", "Miami", 45.0))

    if not coast_to_coast():
        raise AssertionError("routing probe found no path")
    return {"routing.paths_ns": _ns_per_unit(coast_to_coast)}


# -- fleet / shard ------------------------------------------------------------------


def _session_spec(rng: np.random.Generator, session_id: int) -> SessionSpec:
    source, receiver = rng.choice(len(HOST_CITIES), size=2, replace=False)
    return SessionSpec(
        session_id=session_id,
        source_city=HOST_CITIES[int(source)],
        receiver_cities=(HOST_CITIES[int(receiver)],),
        rate_mbps=float(rng.choice((5.0, 10.0, 20.0))),
        max_delay_ms=100.0,
    )


def _fleet(rng: np.random.Generator) -> dict[str, float]:
    manager = FleetManager(fleet_of(SOAK_DC_CITIES[:8]), backbone_mbps=100_000.0)
    for session_id in range(1, FLEET_LIVE_SESSIONS + 1):
        manager.admit(_session_spec(rng, session_id))
    if manager.active_sessions != FLEET_LIVE_SESSIONS:
        raise AssertionError("fleet probe: the base fleet was not fully admitted")
    gc.collect()
    extra = [_session_spec(rng, FLEET_LIVE_SESSIONS + 1 + i) for i in range(FLEET_SAMPLES)]
    admit_s = [_timed(lambda spec=spec: manager.admit(spec)) for spec in extra]
    step = FLEET_LIVE_SESSIONS // FLEET_SAMPLES
    replan_s = [
        _timed(lambda sid=sid: manager.replan_session(sid)) for sid in range(1, FLEET_LIVE_SESSIONS + 1, step)
    ]
    depart_s = [_timed(lambda spec=spec: manager.depart(spec.session_id)) for spec in extra]
    return {
        "fleet.admit_ns_p50": _percentile_ns(admit_s, 50),
        "fleet.replan_ns_p50": _percentile_ns(replan_s, 50),
        "fleet.replan_ns_p99": _percentile_ns(replan_s, 99),
        "fleet.depart_ns_p50": _percentile_ns(depart_s, 50),
    }


def _takeover_host_s(rng: np.random.Generator) -> float:
    """Host time of crash -> detection -> adoption -> re-push, 50 live sessions."""
    scheduler = EventScheduler()
    shard = ShardController("Chicago", fleet_of(("Chicago", "Denver", "Kansas City")), scheduler)
    for session_id in range(1, 51):
        verdict = shard.try_admit(_session_spec(rng, session_id))
        if verdict is None or not verdict.admitted:
            raise AssertionError("shard probe: base session not admitted")
    scheduler.schedule_at(1.0, shard.replicas[0].crash)
    scheduler.run(until=1.0)
    elapsed = _timed(lambda: scheduler.run(until=3.0))
    shard.stop()
    if len(shard.takeovers) != 1 or shard.manager.active_sessions != 50:
        raise AssertionError("shard probe: takeover did not preserve the sessions")
    return elapsed


def _shard(rng: np.random.Generator) -> dict[str, float]:
    latency = os3e_latency_ms()
    return {
        "shard.place_controllers_ns.k3": _ns_per_unit(lambda: place_controllers(3, latency=latency)),
        "shard.takeover_host_ms": statistics.median(_takeover_host_s(rng) for _ in range(3)) * 1e3,
    }


def run_all(seed: int) -> dict[str, float]:
    """Every probe, keyed by per-layer metric name, in reference time.

    Like the workloads' chunks, each group of probes is bracketed by two
    timings of the calibration kernel and scaled by the host's speed.
    """
    rng = np.random.default_rng(seed)
    groups: tuple[Callable[[], dict[str, float]], ...] = (
        lambda: _gf(rng),
        lambda: _rlnc(rng),
        lambda: _wire(rng),
        _events,
        lambda: _link(rng),
        lambda: _vnf(rng),
        _signals,
        _adapt,
        lambda: _lp(rng),
        _routing,
        lambda: _fleet(rng),
        lambda: _shard(rng),
    )
    out: dict[str, float] = {}
    before = kernel_seconds()
    for group in groups:
        values = group()
        after = kernel_seconds()
        factor = speed_factor(before, after)
        before = after
        out.update({name: value * factor for name, value in values.items()})
    return out
