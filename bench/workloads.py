"""The five workloads: what is run, what is timed, how the output is checked.

Every workload is a *batch of fixed-size chunks*: simulated traffic is
open-loop paced in simulated time, and in host time the question is
work completed per second.  The worker either runs a fixed number of
chunks (``--scale``; simulated results then repeat bit for bit) or
keeps running chunks until a host-time budget is spent (``--seconds``).

Only the regions inside ``with self.watch:`` are timed (and traced);
input generation, warm-up, drains and checks run outside them.  The
program under test receives only inputs generated from the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.experiments.butterfly import run_butterfly_nc
from repro.experiments.scenarios import IOT_RELAY_CHAIN, run_scenario
from repro.core.vnf import CodingVnf
from repro.fleet.churn import JOIN, ChurnTrace, SessionSpec
from repro.fleet.manager import fleet_of
from repro.fleet.soak import SOAK_DC_CITIES
from repro.net.events import EventScheduler
from repro.net.loss import BurstLoss
from repro.net.topology import Topology
from repro.rlnc import CodedPacket, Decoder, Encoder, Generation, Recoder, reassemble, segment
from repro.rlnc.redundancy import RedundancyPolicy
from repro.shard.plane import ShardedControlPlane

#: Simulated seconds every data-plane run keeps going, untimed, after its
#: source stops, so NACK repair can finish what was in flight.
DRAIN_SIM_S = 3.0


class Stopwatch:
    """Accumulated wall and CPU time of the timed regions.

    A tracer, when given, records spans only inside them.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> "Stopwatch":
        if self.tracer is not None:
            self.tracer.recording = True
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s += time.perf_counter() - self._wall0
        self.cpu_s += time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.recording = False


@dataclass
class Outcome:
    """What a finished workload hands the worker."""

    #: Operations for the correctness count: generations, or joins + leaves.
    attempted: int
    failed: int
    delivered_ratio: float
    #: Exact per-layer ledger entries (counters and simulated metrics),
    #: keyed by metric name; they repeat bit for bit under fixed work.
    ledger: dict[str, float]
    #: Scheduler events fired inside the timed regions (0 without a simulator).
    events_timed: int = 0
    #: Digest of the produced bytes, where the workload produces any.
    output_sha256: str = ""

    def fingerprint(self) -> str:
        """SHA-256 over every simulated metric, exact work counter and output."""
        document = {
            "attempted": self.attempted,
            "failed": self.failed,
            "delivered_ratio": self.delivered_ratio,
            "ledger": self.ledger,
            "output_sha256": self.output_sha256,
        }
        return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class Workload:
    """One named workload; subclasses fill in the four phases."""

    name = ""
    #: Chunks of a fixed-work run at ``--scale 1`` (about 10 s of host
    #: time on the container the baseline was measured on).
    default_chunks = 1

    def __init__(self, seed: int, scale: float, watch: Stopwatch) -> None:
        self.seed = seed
        self.scale = scale
        self.watch = watch
        #: Work units completed inside timed regions so far: source packets
        #: decoded at every receiver, or control operations with a verdict.
        self.ops = 0
        #: Wall microseconds of single operations, for a workload that times
        #: them itself (the plane's joins); otherwise the worker derives
        #: per-operation time from whole chunks.
        self.op_wall_us: list[float] = []

    def setup(self) -> None:
        """Build the system under test (counted in ``setup_s``)."""

    def warmup(self) -> None:
        """Untimed run-in before the first timed chunk."""

    def step(self) -> None:
        """Run one chunk, timing its core under ``self.watch``."""
        raise NotImplementedError

    def finish(self) -> Outcome:
        """Stop, drain untimed, check the outputs."""
        raise NotImplementedError


# -- shared read-outs of public simulator state --------------------------------


def _link_ledger(topo: Topology) -> dict[str, float]:
    stats = [link.stats for link in topo.links.values()]
    return {
        "net.link.sent_pkts": sum(s.sent_packets for s in stats),
        "net.link.dropped_queue": sum(s.dropped_queue for s in stats),
        "net.link.dropped_loss": sum(s.dropped_loss for s in stats),
    }


def _vnf_ledger(topo: Topology) -> dict[str, float]:
    vnfs = [node for node in topo.nodes.values() if isinstance(node, CodingVnf)]
    return {
        "core.vnf.processed_pkts": sum(vnf.processed_packets for vnf in vnfs),
        "core.vnf.emitted_pkts": sum(vnf.emitted_packets for vnf in vnfs),
    }


def _receiver_ledger(receivers: Iterable[Any]) -> dict[str, float]:
    received = redundant = nacks = 0
    for app in receivers:
        received += app.received_packets
        redundant += app.redundant_packets
        nacks += app.nacks_sent
    return {
        "rlnc.innovative_ratio": 1.0 - redundant / received if received else 0.0,
        "apps.nacks_sent": nacks,
    }


def _gap_p99_ms(completion_times: Iterable[float]) -> float:
    """p99 gap between consecutive generation completions, in sim ms."""
    times = np.sort(np.fromiter(completion_times, dtype=float))
    if times.size < 2:
        return 0.0
    return float(np.percentile(np.diff(times), 99) * 1e3)


def _missing_generations(sent: int, receivers: Iterable[Any]) -> int:
    """Sent generations not complete at *every* receiver."""
    apps = list(receivers)
    return sum(1 for g in range(sent) if any(g not in app.completed for app in apps))


# -- butterfly (clean and lossy) -------------------------------------------------


class Butterfly(Workload):
    """``run_butterfly_nc`` at the paper's shape, continued chunk by chunk.

    The experiment function builds the session and starts the source
    (its own run is cut to a microsecond); the benchmark then advances
    the same topology chunk by chunk.  The untimed warm-up lasts until
    the relays' 1024-generation buffers are full, after which host cost
    per chunk is flat.

    The lossy variant offers a quarter of what NC1 could carry (13.2 of
    52.8 Mbps).  At the full rate the 512-generation ARQ window holds
    0.45 s of data, less than a second NACK round, so the source stalls
    on every repair that needs one and simulated goodput swings between
    0.55 and 0.73 of the offered rate from seed to seed; at half rate a
    run in three still has a stall worth 4 % of goodput.  At a quarter
    the window spans every retry that occurs, goodput sits at 0.975 +/-
    0.003 over seeds, and the loss, NACK and repair paths still run
    (about 7 % of generations are NACKed).
    """

    BLOCKS = 4

    def __init__(self, seed: int, scale: float, watch: Stopwatch, *, lossy: bool) -> None:
        super().__init__(seed, scale, watch)
        self.lossy = lossy
        if lossy:
            self.name = "butterfly-lossy-payload"
            self.rate_mbps = 13.2
            self.chunk_sim_s = 0.5
            self.warmup_sim_s = 4.0
            self.default_chunks = 30
        else:
            self.name = "butterfly-clean"
            self.rate_mbps = 66.0
            self.chunk_sim_s = 0.125
            self.warmup_sim_s = 1.0
            self.default_chunks = 36

    def setup(self) -> None:
        shape: dict[str, Any] = dict(
            duration_s=1e-6, warmup_s=0.0, rate_mbps=self.rate_mbps, window_generations=512, seed=self.seed
        )
        if self.lossy:
            shape.update(
                payload_mode="full",
                redundancy=RedundancyPolicy(1),
                loss_on_bottleneck=BurstLoss(0.10, correlation=0.25),
                jitter_s=0.003,
            )
        else:
            shape.update(payload_mode="coefficients-only")
        self.run = run_butterfly_nc(**shape)
        self.topo = self.run.topology
        self.scheduler = self.topo.scheduler

    def _decoded_everywhere(self) -> int:
        return min(len(app.completed) for app in self.run.receivers.values())

    def warmup(self) -> None:
        self.topo.run(until=self.warmup_sim_s * min(1.0, self.scale))
        self.timed_from_s = self.scheduler.now
        self._decoded0 = self._decoded_everywhere()
        self._events0 = self.scheduler.processed

    def step(self) -> None:
        until = self.scheduler.now + self.chunk_sim_s
        with self.watch:
            self.topo.run(until=until)
        self.ops = self.BLOCKS * (self._decoded_everywhere() - self._decoded0)

    def finish(self) -> Outcome:
        stopped_at = self.scheduler.now
        events_timed = self.scheduler.processed - self._events0
        source = self.run.source
        receivers = list(self.run.receivers.values())
        source.stop()
        self.topo.run(until=stopped_at + DRAIN_SIM_S)

        sent = source.sent_generations
        goodput = min(app.goodput_mbps(start_s=self.timed_from_s, end_s=stopped_at) for app in receivers)
        ledger = {
            "net.events.processed": self.scheduler.processed,
            **_link_ledger(self.topo),
            **_vnf_ledger(self.topo),
            **_receiver_ledger(receivers),
            "apps.repair_pkts": source.repair_packets,
            "session.goodput_mbps": goodput,
            "session.redundancy_tax": source.sent_packets / (self.BLOCKS * sent) - 1.0,
            "session.decode_gap_sim_ms_p99": max(
                _gap_p99_ms(t for t in app.completed.values() if self.timed_from_s <= t <= stopped_at)
                for app in receivers
            ),
        }
        return Outcome(
            attempted=sent,
            failed=_missing_generations(sent, receivers),
            delivered_ratio=goodput / self.rate_mbps,
            ledger=ledger,
            events_timed=events_timed,
        )


# -- IoT relay chain under the adaptive loop -----------------------------------


class IotChain(Workload):
    """``run_scenario(IOT_RELAY_CHAIN, "adaptive", 0.15)`` in 10 sim-s episodes.

    ``run_scenario`` tears its control loop down at the horizon, so a
    run cannot be continued; each chunk is a fresh session (its own
    sub-seed) that starts at zero redundancy and lets the AIMD loop
    converge.  After the timed call the source is stopped, ACKs are
    re-armed and the chain drains untimed, so the in-flight tail
    completes and no generation counts as failed.
    """

    EPISODE_SIM_S = 10.0
    LOSS = 0.15
    default_chunks = 10

    name = "iot-chain-adaptive"

    def setup(self) -> None:
        self.episodes = 0
        self.attempted = 0
        self.failed = 0
        self.events_timed = 0
        self.decoded_bytes = 0
        self.sent_packets = 0
        self.useful_packets = 0
        self.received = 0
        self.redundant = 0
        self.gaps_p99: list[float] = []
        self.ledger: dict[str, float] = {}

    def _add(self, entries: dict[str, float]) -> None:
        for key, value in entries.items():
            self.ledger[key] = self.ledger.get(key, 0) + value

    def step(self) -> None:
        preset = IOT_RELAY_CHAIN
        episode_seed = self.seed * 1000 + self.episodes
        self.episodes += 1
        with self.watch:
            result = run_scenario(
                preset, "adaptive", self.LOSS, duration_s=self.EPISODE_SIM_S, seed=episode_seed
            )
        scheduler = result.topology.scheduler
        self.events_timed += scheduler.processed
        self.decoded_bytes += result.decoded_bytes
        self.ops = self.decoded_bytes // preset.block_bytes
        self.gaps_p99.append(_gap_p99_ms(result.receiver.completed.values()))

        result.source.stop()
        result.receiver.retarget_acks(result.receiver.ack_to)
        scheduler.run(until=scheduler.now + DRAIN_SIM_S)
        sent = result.source.sent_generations
        self.attempted += sent
        self.failed += _missing_generations(sent, [result.receiver])
        self.sent_packets += result.source.sent_packets
        self.useful_packets += sum(result.receiver.completed_bytes.values()) // preset.block_bytes
        self.received += result.receiver.received_packets
        self.redundant += result.receiver.redundant_packets
        self._add(
            {
                "net.events.processed": scheduler.processed,
                **_link_ledger(result.topology),
                **_vnf_ledger(result.topology),
                "apps.nacks_sent": result.receiver.nacks_sent,
                "apps.repair_pkts": result.source.repair_packets,
                "adapt.retunes_applied": result.retunes_applied,
            }
        )
        # A finished episode is one big reference cycle; collecting it now
        # keeps peak memory a property of one episode, not of GC timing.
        del result, scheduler
        gc.collect()

    def finish(self) -> Outcome:
        sim_s = self.episodes * self.EPISODE_SIM_S
        goodput = self.decoded_bytes * 8 / sim_s / 1e6
        ledger = dict(self.ledger)
        ledger.update(
            {
                "rlnc.innovative_ratio": 1.0 - self.redundant / self.received,
                "session.goodput_mbps": goodput,
                "session.redundancy_tax": self.sent_packets / self.useful_packets - 1.0,
                "session.decode_gap_sim_ms_p99": max(self.gaps_p99),
            }
        )
        return Outcome(
            attempted=self.attempted,
            failed=self.failed,
            delivered_ratio=goodput / IOT_RELAY_CHAIN.data_rate_mbps,
            ledger=ledger,
            events_timed=self.events_timed,
        )


# -- sharded control plane under churn and failover ----------------------------


class PlaneChurn(Workload):
    """Poisson join/leave churn through ``ShardedControlPlane(k=3)``.

    Each 20 sim-s chunk schedules one seeded churn segment (about 100
    joins, each with its leave; steady state is about 200 live
    sessions) and crashes one shard's current primary five seconds in,
    shards taking turns; the crashed replica comes back ten seconds
    later as the standby.  Quotas are generous: every join must be
    admitted.  The drain runs until the last leave has landed.
    """

    CHUNK_SIM_S = 20.0
    CRASH_AFTER_S = 5.0
    RESTORE_AFTER_S = 15.0
    DRAIN_MARGIN_S = 30.0
    default_chunks = 22

    name = "plane-churn-failover"

    def setup(self) -> None:
        self.scheduler = EventScheduler()
        # Generous quotas, and VNFs big enough (10 Gbps) that no PoP's live
        # VNFs ever fill up.  A join that exactly fills them leaves float
        # dust (1e-12 Mbps) as that PoP's slack, and on such a right-hand
        # side repro.lp.simplex can stop at a vertex with rate 0 and call
        # it optimal (HiGHS carries the full rate): about one wrongly
        # rejected join in 30 000 with 1 Gbps VNFs, none in 60 000 here.
        datacenters = fleet_of(
            SOAK_DC_CITIES[:8], inbound_mbps=10_000.0, outbound_mbps=10_000.0, coding_mbps=9_000.0
        )
        self.plane = ShardedControlPlane(
            3, datacenters, self.scheduler, manager_kwargs={"backbone_mbps": 100_000.0}
        )
        self.shard_ids = sorted(self.plane.shards)
        self.chunks = 0
        self.joins = 0
        self.crashes = 0
        self.last_event_s = 0.0
        self._down: dict[str, Any] = {}

    def _submit(self, spec: SessionSpec) -> None:
        start = time.perf_counter()
        self.plane.submit(spec)
        self.op_wall_us.append((time.perf_counter() - start) * 1e6)

    def _crash_primary(self, shard_id: str) -> None:
        shard = self.plane.shards[shard_id]
        holder = next(r for r in shard.replicas if r.name == shard.lease.holder)
        self._down[shard_id] = holder
        self.crashes += 1
        holder.crash()

    def _restore(self, shard_id: str) -> None:
        self._down.pop(shard_id).restore()

    def step(self) -> None:
        base = self.chunks * self.CHUNK_SIM_S
        segment_trace = ChurnTrace.generate(
            self.seed * 100_000 + self.chunks,
            duration_s=self.CHUNK_SIM_S,
            arrival_rate_per_s=5.0,
            mean_holding_s=40.0,
            delay_choices_ms=(100.0, 150.0),
            start_id=self.joins + 1,
        )
        for event in segment_trace.events:
            at = base + event.time_s
            if event.kind == JOIN:
                self.scheduler.schedule_at(at, self._submit, event.spec)
                self.joins += 1
            else:
                self.scheduler.schedule_at(at, self.plane.depart, event.session_id)
            self.last_event_s = max(self.last_event_s, at)
        shard_id = self.shard_ids[self.chunks % len(self.shard_ids)]
        self.scheduler.schedule_at(base + self.CRASH_AFTER_S, self._crash_primary, shard_id)
        self.scheduler.schedule_at(base + self.RESTORE_AFTER_S, self._restore, shard_id)
        self.chunks += 1
        with self.watch:
            self.scheduler.run(until=base + self.CHUNK_SIM_S)
        self.ops = len(self.plane.verdicts) + len(self.plane.departed)

    def finish(self) -> Outcome:
        plane = self.plane
        events_timed = self.scheduler.processed
        self.scheduler.run(until=max(self.last_event_s, self.scheduler.now) + self.DRAIN_MARGIN_S)
        plane.stop()

        admitted = sum(1 for verdict in plane.verdicts if verdict.admitted)
        takeovers = [t for shard in plane.shards.values() for t in shard.takeovers]
        failed = (
            (self.joins - admitted)
            + (self.joins - len(plane.departed))
            + len(plane.stats.stranded)
            + abs(self.crashes - len(takeovers))
            + (1 if plane.active_sessions or plane.total_vnfs else 0)
        )
        managers = [m for shard in plane.shards.values() for m in (shard.manager, *shard.zombies)]
        lp_solves = sum(m.lp_solves for m in managers)
        ledger = {
            "net.events.processed": self.scheduler.processed,
            "fleet.lp_solves": lp_solves,
            "fleet.warm_hit_ratio": sum(m.warm_hits for m in managers) / lp_solves if lp_solves else 0.0,
            "shard.retries": plane.stats.retries,
            "shard.takeover_mttr_sim_s": max((t.mttr_s or 0.0 for t in takeovers), default=0.0),
        }
        return Outcome(
            attempted=2 * self.joins,
            failed=failed,
            delivered_ratio=admitted / self.joins,
            ledger=ledger,
            events_timed=events_timed,
        )


# -- codec stream (no simulator) ---------------------------------------------


def mismatched_generations(expected: bytes, actual: bytes, generation_bytes: int) -> int:
    """Generations of ``expected`` that ``actual`` does not reproduce byte for byte.

    A length mismatch fails every generation: the stream is then not the
    message, whatever its prefix says.
    """
    count = -(-len(expected) // generation_bytes)
    if len(actual) != len(expected):
        return count
    return sum(
        1
        for i in range(count)
        if expected[i * generation_bytes : (i + 1) * generation_bytes]
        != actual[i * generation_bytes : (i + 1) * generation_bytes]
    )


class CodecStream(Workload):
    """Seeded bytes through every codec stage, two megabytes per chunk.

    segment (4x1460) -> ``Encoder.next_packets(k+2)`` -> wire encode and
    CRC-verified decode -> pipelined ``Recoder.add``/``recode`` ->
    ``Decoder.add``/``decode`` -> ``reassemble``; the output must equal
    the input.  Every one of the k+2 packets crosses every stage.
    """

    CHUNK_BYTES = 2_000_000
    BLOCKS = 4
    BLOCK_BYTES = 1460
    SESSION = 1
    default_chunks = 40

    name = "codec-stream"

    def setup(self) -> None:
        self.message_rng = np.random.default_rng(self.seed)
        self.coding_rng = np.random.default_rng(self.seed + 1)
        self.next_generation = 0
        self.attempted = 0
        self.failed = 0
        self.received = 0
        self.redundant = 0
        self.digest = hashlib.sha256()

    def _pipeline(self, message: bytes) -> bytes:
        k = self.BLOCKS
        decoded: list[Generation] = []
        for generation in segment(message, self.BLOCK_BYTES, k, first_generation_id=self.next_generation):
            encoder = Encoder(self.SESSION, generation, rng=self.coding_rng)
            recoder = Recoder(self.SESSION, generation.generation_id, k, rng=self.coding_rng)
            decoder = Decoder(self.SESSION, generation.generation_id, k, self.BLOCK_BYTES)
            for packet in encoder.next_packets(k + 2):
                recoder.add(CodedPacket.decode(packet.encode()))
                decoder.add(recoder.recode())
            self.received += decoder.received
            self.redundant += decoder.redundant
            if decoder.complete:
                decoded.append(decoder.decode())
            else:  # keeps the stream aligned; the byte comparison fails it
                decoded.append(Generation(generation.generation_id, np.zeros_like(generation.blocks)))
        self.next_generation += len(decoded)
        return reassemble(decoded, len(message))

    def warmup(self) -> None:
        # Builds the lazy GF product table and the struct caches.
        self._pipeline(self.message_rng.bytes(self.BLOCKS * self.BLOCK_BYTES))
        self.received = self.redundant = 0

    def step(self) -> None:
        message = self.message_rng.bytes(self.CHUNK_BYTES)
        before = self.next_generation
        with self.watch:
            output = self._pipeline(message)
        generations = self.next_generation - before
        bad = mismatched_generations(message, output, self.BLOCKS * self.BLOCK_BYTES)
        self.attempted += generations
        self.failed += bad
        self.ops += self.BLOCKS * (generations - bad)
        self.digest.update(output)

    def finish(self) -> Outcome:
        return Outcome(
            attempted=self.attempted,
            failed=self.failed,
            delivered_ratio=(self.attempted - self.failed) / self.attempted,
            ledger={"rlnc.innovative_ratio": 1.0 - self.redundant / self.received},
            output_sha256=self.digest.hexdigest(),
        )


def make(name: str, seed: int, scale: float, watch: Stopwatch) -> Workload:
    """Instantiate a workload by its ``metrics.WORKLOADS`` name."""
    if name == "butterfly-clean":
        return Butterfly(seed, scale, watch, lossy=False)
    if name == "butterfly-lossy-payload":
        return Butterfly(seed, scale, watch, lossy=True)
    classes = {cls.name: cls for cls in (IotChain, PlaneChurn, CodecStream)}
    return classes[name](seed, scale, watch)
