"""Data-plane coding VNF tests."""

import hashlib

import numpy as np
import pytest

from repro.apps.file_transfer import NcReceiverApp
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import NC_PORT, CodingVnf, VnfDispatcher, VnfRole
from repro.net import LinkSpec, Topology
from repro.net.impairments import Duplication
from repro.net.loss import BurstLoss
from repro.net.packet import Datagram
from repro.rlnc import CodedPacket, Decoder, Encoder, Generation, NCHeader


def make_chain(rng, roles=("RECODER",), coding_overhead_s=0.0):
    """source host -> vnf(s) -> sink host, 100 Mbps, 1 ms links."""
    topo = Topology(rng=rng)
    names = ["src"] + [f"vnf{i}" for i in range(len(roles))] + ["dst"]
    topo.add_node("src")
    vnfs = []
    config = CodingConfig(block_bytes=32)
    for i, role in enumerate(roles):
        vnf = CodingVnf(f"vnf{i}", topo.scheduler, rng=rng, coding_overhead_s=coding_overhead_s)
        topo.add_node(vnf)
        vnf.configure_session(1, VnfRole[role], config)
        vnfs.append(vnf)
    topo.add_node("dst")
    for a, b in zip(names, names[1:]):
        topo.add_link(LinkSpec(a, b, 100.0, 1.0))
    for vnf, nxt in zip(vnfs, names[2:]):
        vnf.forwarding_table = ForwardingTable({1: [nxt]})
    return topo, vnfs, config


def send_generation(topo, rng, config, count=4, session=1):
    gen = Generation(0, rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8))
    enc = Encoder(session, gen, rng=rng)
    src = topo.get("src")
    for _ in range(count):
        src.send("vnf0", enc.next_packet(), 64, dst_port=NC_PORT)
    return gen


class TestRecoder:
    def test_recodes_and_forwards(self, rng):
        topo, vnfs, config = make_chain(rng)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        gen = send_generation(topo, rng, config, count=5)
        topo.run()
        assert len(received) == 5
        dec = Decoder(1, 0, 4, config.block_bytes)
        for p in received:
            if not dec.complete:
                dec.add(p)
        assert dec.complete
        assert dec.decode() == gen

    def test_first_packet_forwarded_immediately(self, rng):
        topo, vnfs, config = make_chain(rng)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=1)
        topo.run()
        assert len(received) == 1
        assert received[0].header.systematic  # verbatim forward of the original

    def test_unknown_session_dropped(self, rng):
        topo, vnfs, config = make_chain(rng)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=3, session=99)
        topo.run()
        assert received == []
        assert vnfs[0].processed_packets == 0

    def test_multi_hop_chain(self, rng):
        topo, vnfs, config = make_chain(rng, roles=("RECODER", "RECODER", "RECODER"))
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        gen = send_generation(topo, rng, config, count=6)
        topo.run()
        dec = Decoder(1, 0, 4, config.block_bytes)
        for p in received:
            if not dec.complete:
                dec.add(p)
        assert dec.complete and dec.decode() == gen


class TestForwarder:
    def test_forwards_verbatim(self, rng):
        topo, vnfs, config = make_chain(rng, roles=("FORWARDER",))
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=4)
        topo.run()
        assert len(received) == 4
        assert all(p.header.systematic for p in received)

    def test_forwarder_cheaper_than_recoder(self, rng):
        _, [fwd], config = make_chain(rng, roles=("FORWARDER",), coding_overhead_s=90e-6)
        _, [rec], _ = make_chain(rng, roles=("RECODER",), coding_overhead_s=90e-6)
        from repro.net.packet import Datagram

        d = Datagram(src="a", dst="b", payload=None, payload_bytes=1472)
        assert fwd._service_time(d, VnfRole.FORWARDER) < rec._service_time(d, VnfRole.RECODER)


class TestDecoderRole:
    def test_delivers_decoded_generation(self, rng):
        topo, vnfs, config = make_chain(rng, roles=("DECODER",))
        delivered = []
        vnfs[0].configure_session(1, VnfRole.DECODER, config, deliver=lambda sid, g: delivered.append(g))
        gen = send_generation(topo, rng, config, count=4)
        topo.run()
        assert delivered == [gen]
        assert vnfs[0].decoded_generations == 1


class TestPauseResume:
    def test_table_reload_pauses_processing(self, rng):
        topo, vnfs, config = make_chain(rng)
        vnf = vnfs[0]
        old_table = vnf.forwarding_table
        new_table = ForwardingTable({1: ["dst"], 2: ["dst"], 3: ["dst"]})
        pause = vnf.apply_forwarding_table(new_table)
        assert pause > 0
        assert vnf.is_paused
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=4)
        topo.run(until=pause / 2)
        assert received == []  # still paused; packets queued
        topo.run()
        assert len(received) == 4  # drained after resume

    def test_no_change_no_pause(self, rng):
        topo, vnfs, config = make_chain(rng)
        assert vnfs[0].apply_forwarding_table(vnfs[0].forwarding_table.copy()) == 0.0

    def test_drop_session_clears_state(self, rng):
        topo, vnfs, config = make_chain(rng)
        send_generation(topo, rng, config, count=2)
        topo.run()
        vnfs[0].drop_session(1)
        assert 1 not in vnfs[0].roles
        assert not vnfs[0]._relays


class TestHopShaping:
    def test_shape_limits_emissions(self, rng):
        topo, vnfs, config = make_chain(rng)
        vnfs[0].set_hop_shape(1, "dst", skip_arrivals=2)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=6)
        topo.run()
        assert len(received) == 4  # arrivals 3..6 trigger, the first two are skipped

    def test_shaped_emissions_are_recodes(self, rng):
        topo, vnfs, config = make_chain(rng)
        vnfs[0].set_hop_shape(1, "dst", skip_arrivals=2)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=4)
        topo.run()
        assert all(not p.header.systematic for p in received)

    def test_invalid_shape(self, rng):
        _, vnfs, _ = make_chain(rng)
        with pytest.raises(ValueError):
            vnfs[0].set_hop_shape(1, "dst", -1)


class TestDispatcher:
    def test_same_generation_same_instance(self, rng, scheduler):
        dispatcher = VnfDispatcher("dc", scheduler)
        v1 = CodingVnf("v1", scheduler, rng=rng)
        v2 = CodingVnf("v2", scheduler, rng=rng)
        config = CodingConfig(block_bytes=16)
        for v in (v1, v2):
            v.configure_session(1, VnfRole.RECODER, config)
        dispatcher.add_instance(v1)
        dispatcher.add_instance(v2)

        from repro.net.packet import Datagram

        gen = Generation(0, np.zeros((4, 16), dtype=np.uint8))
        enc = Encoder(1, gen, rng=rng)
        for _ in range(4):
            packet = enc.next_packet()
            dispatcher._dispatch(Datagram(src="x", dst="dc", payload=packet, payload_bytes=64, dst_port=NC_PORT))
        scheduler.run()
        # All four packets of generation 0 went to exactly one instance.
        assert sorted([v1.processed_packets, v2.processed_packets]) == [0, 4]


def dirty_bursts(rng, config, generations, starved=()):
    """Yield (generation id, packets to send) for a k=4 stream with
    duplicates and stragglers: four systematic packets and one coded
    per generation (``starved`` ones stop at three); every fifth
    generation repeats its second packet on the wire, every fourth (from
    12 on) is followed by a straggler for the generation ten back, which
    an eight-deep buffer evicted long ago."""
    sent = {}
    for gen_id in range(generations):
        blocks = rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8)
        sent[gen_id] = Encoder(1, Generation(gen_id, blocks), rng=rng).next_packets(5)
        burst = sent[gen_id][:3] if gen_id in starved else list(sent[gen_id])
        if gen_id % 5 == 0:
            burst.insert(2, burst[1])
        if gen_id >= 12 and gen_id % 4 == 0:
            burst.append(sent[gen_id - 10][0])
        yield gen_id, burst


def drive_bounded_relay(rng, generations=40, on_generation=None):
    """A buffer_generations=8 recoder with two shaped next hops, under
    :func:`dirty_bursts`; returns (relay, emitted packet digest)."""
    topo = Topology(rng=rng)
    topo.add_node("src")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, coding_overhead_s=0.0)
    topo.add_node(relay)
    config = CodingConfig(block_bytes=16, buffer_generations=8)
    relay.configure_session(1, VnfRole.RECODER, config)
    relay.forwarding_table = ForwardingTable({1: ["left", "right"]})
    relay.set_hop_shape(1, "left", skip_arrivals=1)
    relay.set_hop_shape(1, "right", skip_arrivals=2)
    topo.add_link(LinkSpec("src", "relay", 100.0, 1.0))
    digest = hashlib.sha256()
    for sink in ("left", "right"):
        topo.add_node(sink)
        topo.add_link(LinkSpec("relay", sink, 100.0, 1.0))

        def record(dgram, sink=sink):
            packet = dgram.payload
            digest.update(f"{sink}:{packet.generation_id}:".encode())
            digest.update(packet.coefficients.tobytes() + packet.payload.tobytes())

        topo.get(sink).listen(NC_PORT, record)
    src = topo.get("src")
    for _, burst in dirty_bursts(rng, config, generations):
        for packet in burst:
            src.send("relay", packet, 64, dst_port=NC_PORT)
        topo.run()
        if on_generation is not None:
            on_generation(relay)
    return relay, digest.hexdigest()


class TestBoundedRelayState:
    """Relay state is one record per *buffered* generation, whatever
    the stream length; the buffer's eviction report keeps it so."""

    #: drive_bounded_relay(default_rng(12345)): the emitted (generation,
    #: coefficients, payload) sequence must not move.  Held since the
    #: commit before the relay-state rewrite (set-diff eviction,
    #: (session, hop, generation) progress keys); re-pinned once, at the
    #: random-stream migration (DESIGN §10 "Random streams": raw-word
    #: coefficient draws, a private stream per link), from 1b401275…,
    #: and, when PR 23 deleted the emit cap, read off the parent tree
    #: with the "right" hop's cap left off (from 38fc14ca…).
    PARENT_DIGEST = "1b5fa19edd016f77b676f243ce9fbf419156d803390d04453332526f8a8f3c8d"

    def test_state_tracks_the_buffer_and_output_is_unchanged(self, rng):
        def bounded(relay):
            buffered = set(relay.buffers[1].generations())
            assert len(buffered) <= 8
            assert set(relay._relays[1]) == buffered

        relay, digest = drive_bounded_relay(rng, on_generation=bounded)
        assert set(relay._relays[1]) == set(range(32, 40))
        for state in relay._relays[1].values():
            assert state.hop_progress == {"left": 5, "right": 5}
        assert relay.duplicate_dropped == 8   # generations 0, 5, ..., 35
        assert relay.stale_dropped == 7       # after generations 12, 16, ..., 36
        assert relay.processed_packets == 40 * 5 + 8 + 7
        assert relay.emitted_packets == 40 * (4 + 3)
        assert digest == self.PARENT_DIGEST

    def test_clearing_a_shape_and_dropping_the_session_leave_no_progress(self, rng):
        relay, _ = drive_bounded_relay(rng, generations=12)
        relay.set_hop_shape(1, "left", 0)
        assert set(relay._hop_shapes[1]) == {"right"}
        assert all(set(state.hop_progress) == {"right"} for state in relay._relays[1].values())
        relay.drop_session(1)
        assert 1 not in relay._relays and 1 not in relay.buffers
        assert not relay._hop_shapes


VNF_COUNTERS = (
    "processed_packets",
    "emitted_packets",
    "decoded_generations",
    "retunes_applied",
    "corrupt_dropped",
    "duplicate_dropped",
    "stale_dropped",
)
BUFFER_COUNTERS = ("stored_packets", "duplicate_packets", "rejected_stale", "evicted_generations")


def run_digest(topo, vnfs, sinks):
    """Run ``topo`` dry; SHA-256 of every packet the sinks hear (in
    arrival order) and of every VNF, buffer and link counter."""
    digest = hashlib.sha256()

    def record(dgram):
        packet = dgram.payload
        digest.update(f"{dgram.dst}:{packet.generation_id}:{int(packet.header.systematic)}:".encode())
        digest.update(packet.coefficients.tobytes() + packet.payload.tobytes())

    for sink in sinks:
        topo.get(sink).listen(NC_PORT, record)
    topo.run()
    for vnf in vnfs:
        counters = [getattr(vnf, name) for name in VNF_COUNTERS]
        for session_id, buffer in sorted(vnf.buffers.items()):
            counters += [session_id, len(buffer), *buffer.generations()]
            counters += [getattr(buffer, name) for name in BUFFER_COUNTERS]
        digest.update(f"{vnf.name}:{counters};".encode())
    for key, link in sorted(topo.links.items()):
        digest.update(f"{key}:{sorted(link.stats.as_dict().items())};".encode())
    return digest.hexdigest()


def drive_dirty_chain(rng):
    """src -> three k=16, 256-byte recoders -> dst over duplicating,
    burst-lossy, jittery links into six-generation buffers, with a
    straggler for a long-evicted generation every third generation."""
    topo = Topology(rng=rng)
    names = ["src", "r0", "r1", "r2", "dst"]
    config = CodingConfig(block_bytes=256, blocks_per_generation=16, buffer_generations=6)
    topo.add_node("src")
    vnfs = []
    for name, nxt in zip(names[1:4], names[2:]):
        vnf = CodingVnf(name, topo.scheduler, rng=rng, coding_overhead_s=0.0)
        topo.add_node(vnf)
        vnf.configure_session(1, VnfRole.RECODER, config)
        vnf.forwarding_table = ForwardingTable({1: [nxt]})
        vnfs.append(vnf)
    topo.add_node("dst")
    for a, b in zip(names, names[1:]):
        link = topo.add_link(
            LinkSpec(a, b, 100.0, 1.0, loss=BurstLoss(0.08, 0.25), queue_bytes=1 << 22, jitter_s=4e-4)
        )
        link.add_impairment(Duplication(0.1))
    src = topo.get("src")
    first = {}
    for gen_id in range(24):
        blocks = rng.integers(0, 256, (16, config.block_bytes), dtype=np.uint8)
        burst = Encoder(1, Generation(gen_id, blocks), rng=rng).next_packets(19)
        first[gen_id] = burst[0]
        if gen_id >= 12 and gen_id % 3 == 0:
            burst.append(first[gen_id - 10])
        for packet in burst:
            src.send("r0", packet, 284, dst_port=NC_PORT)
    return run_digest(topo, vnfs, ["dst"])


def drive_fanout_relay(rng, shapes):
    """One k=4 recoder fanning out to ``len(shapes)`` sinks; ``shapes``
    maps each next hop to its ``skip_arrivals`` or ``None``."""
    topo = Topology(rng=rng)
    topo.add_node("src")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, coding_overhead_s=0.0)
    topo.add_node(relay)
    config = CodingConfig(block_bytes=16, buffer_generations=8)
    relay.configure_session(1, VnfRole.RECODER, config)
    relay.forwarding_table = ForwardingTable({1: list(shapes)})
    topo.add_link(LinkSpec("src", "relay", 100.0, 1.0))
    for hop, shape in shapes.items():
        topo.add_node(hop)
        topo.add_link(LinkSpec("relay", hop, 100.0, 1.0))
        if shape is not None:
            relay.set_hop_shape(1, hop, shape)
    src = topo.get("src")
    for gen_id in range(20):
        blocks = rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8)
        burst = Encoder(1, Generation(gen_id, blocks), rng=rng).next_packets(6)
        if gen_id % 4 == 0:
            burst.insert(3, burst[2])
        for packet in burst:
            src.send("relay", packet, 64, dst_port=NC_PORT)
    return run_digest(topo, [relay], list(shapes))


FANOUTS = {
    "two-unshaped": {"a": None, "b": None},
    "two-shaped": {"a": 1, "b": 2},
    "two-mixed": {"a": None, "b": 2},
    "three-unshaped": {"a": None, "b": None, "c": None},
    "three-shaped": {"a": 1, "b": 2, "c": 3},
    "three-mixed": {"a": 1, "b": None, "c": 2},
}


class TestRelayBitIdentity:
    """Who stores a relay's rows and how many kernel calls mix them is
    simulator speed, so every emitted packet and counter must hold.
    Held since the commit before the one-row-store relay (packets kept
    in ``GenerationBuffer`` buckets, one ``recode()`` per hop);
    re-pinned once, at the random-stream migration (DESIGN §10 "Random
    streams"), the one commit allowed to move them.  The four fan-outs
    that used an emit cap were read off the parent tree with the cap
    left off when PR 23 deleted it."""

    CHAIN_DIGEST = "3a4acc5c3ec0e91054bc000466e5c4fb1473166be4048aad94b3ef40a246baea"
    FANOUT_DIGESTS = {
        "two-unshaped": "b2e56b5b8fb0765ff9bf8943aa8540b5e7c2a7c17cf4e61bc9f7714d09faa889",
        "two-shaped": "f79e544fc0832e2223562dbedd3f39da247f46759d7f0868820ee0148ee895d6",
        "two-mixed": "ab51f9760aad8ff7810dfc1d1c3691be3c5874d37f745525605715db96e0433e",
        "three-unshaped": "0976406611d09f1e8be54fe343755d9547d32282eaba5b212848d0de330eccf6",
        "three-shaped": "b0312e1e046e561a4ec7844845165af8855788fda3ce345d9a796ce42f4c6d49",
        "three-mixed": "8931ebc2433669bb68f5b6066e34158146a63981eed8b9099977bb5dc66dcf97",
    }

    def test_three_relay_dirty_chain(self, rng):
        assert drive_dirty_chain(rng) == self.CHAIN_DIGEST

    @pytest.mark.parametrize("fanout", sorted(FANOUTS))
    def test_fanout_relay(self, rng, fanout):
        assert drive_fanout_relay(rng, FANOUTS[fanout]) == self.FANOUT_DIGESTS[fanout]


class TestMalformedPackets:
    """A packet shaped unlike the live generation it names (k = 3 into
    a k = 4 generation, a short payload) is counted and dropped; it
    used to raise ``ValueError`` out of ``EventScheduler.run``."""

    @staticmethod
    def hostile_burst(rng, config, session=1):
        gen = Generation(0, rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8))
        good = Encoder(session, gen, rng=rng).next_packets(5)
        donor = good[1]
        wrong_k = CodedPacket(NCHeader(session, 0, donor.coefficients[:3]), donor.payload)
        short = CodedPacket(donor.header, donor.payload[:9])
        return gen, [good[0], wrong_k, short, *good[1:]]

    def test_recoder_drops_them_before_the_buffer_counts(self, rng):
        topo, [relay], config = make_chain(rng)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        gen, burst = self.hostile_burst(rng, config)
        for packet in burst:
            topo.get("src").send("vnf0", packet, 64, dst_port=NC_PORT)
        topo.run()
        assert relay.malformed_dropped == 2
        assert relay.processed_packets == 7 and relay.emitted_packets == 5
        assert relay.buffers[1].stored_packets == 5
        assert relay._relays[1][0].recoder.buffered == 5
        dec = Decoder(1, 0, 4, config.block_bytes)
        for packet in received:
            dec.add(packet)
        assert dec.complete and dec.decode() == gen

    def test_decoder_role_drops_them_and_still_decodes(self, rng):
        topo, [vnf], config = make_chain(rng, roles=("DECODER",))
        delivered = []
        vnf.configure_session(1, VnfRole.DECODER, config, deliver=lambda sid, g: delivered.append(g))
        gen, burst = self.hostile_burst(rng, config)
        for packet in burst:
            topo.get("src").send("vnf0", packet, 64, dst_port=NC_PORT)
        topo.run()
        assert vnf.malformed_dropped == 2
        assert delivered == [gen]

    def test_receiver_app_drops_them_and_still_decodes(self, rng):
        topo = Topology(rng=rng)
        topo.add_node("src")
        topo.add_node("dst")
        topo.add_link(LinkSpec("src", "dst", 100.0, 1.0))
        session = MulticastSession(source="src", receivers=["dst"], coding=CodingConfig(block_bytes=32))
        receiver = NcReceiverApp(topo.get("dst"), session, retain_decoded=True)
        gen, burst = self.hostile_burst(rng, session.coding, session=session.session_id)
        for packet in burst:
            topo.get("src").send("dst", packet, 64, dst_port=NC_PORT)
        topo.run()
        assert receiver.malformed_dropped == 2
        assert receiver.received_packets == 7 and receiver.redundant_packets == 1
        assert receiver.decoded_generations == {0: gen}


def drive_bounded_decoder(rng, generations=40, on_generation=None):
    """A buffer_generations=8 DECODER under :func:`dirty_bursts`, where
    from 20 on every fourth generation arrives one packet short of rank
    and is never completed.  Returns (vnf, delivered generation ids)."""
    topo = Topology(rng=rng)
    topo.add_node("src")
    vnf = CodingVnf("dec", topo.scheduler, rng=rng, coding_overhead_s=0.0)
    topo.add_node(vnf)
    config = CodingConfig(block_bytes=16, buffer_generations=8)
    delivered = []
    vnf.configure_session(
        1, VnfRole.DECODER, config, deliver=lambda sid, g: delivered.append(g.generation_id)
    )
    topo.add_link(LinkSpec("src", "dec", 100.0, 1.0))
    src = topo.get("src")
    for _, burst in dirty_bursts(rng, config, generations, starved=range(22, generations, 4)):
        for packet in burst:
            src.send("dec", packet, 64, dst_port=NC_PORT)
        topo.run()
        if on_generation is not None:
            on_generation(vnf)
    return vnf, delivered


class TestBoundedDecoderState:
    """The DECODER twin of :class:`TestBoundedRelayState`: one
    ``Decoder`` per *buffered* generation, whatever the stream length —
    it used to keep every generation's decoder until ``drop_session``."""

    def test_state_tracks_the_buffer_and_stragglers_are_stale(self, rng):
        def bounded(vnf):
            buffered = set(vnf.buffers[1].generations())
            assert len(buffered) <= 8
            assert set(vnf._decoders[1]) == buffered

        vnf, delivered = drive_bounded_decoder(rng, on_generation=bounded)
        assert set(vnf._decoders[1]) == set(range(32, 40))
        starved = [22, 26, 30, 34, 38]
        assert delivered == [g for g in range(40) if g not in starved]
        assert vnf.decoded_generations == 35
        # A straggler for an evicted generation is refused — it neither
        # re-opens a decoder nor evicts a live one.
        assert vnf.stale_dropped == 7         # after generations 12, 16, ..., 36
        assert vnf.buffers[1].rejected_stale == 7
        assert vnf.buffers[1].evicted_generations == 32
        assert vnf.decoder_state(1, 2) is None
        assert vnf.decoder_state(1, 38).rank == 3
        assert vnf.decoder_state(1, 39).complete

    def test_a_starved_generation_is_evicted_not_kept_forever(self, rng):
        # Generation 22 never reaches rank: its decoder must go when the
        # FIFO passes it, and its late fourth packet must not bring it back.
        vnf, delivered = drive_bounded_decoder(rng, generations=31)
        assert 22 not in vnf._decoders[1] and 22 not in delivered
        late = Encoder(1, Generation(22, np.zeros((4, 16), dtype=np.uint8)), rng=rng).next_packet()
        vnf.inject(Datagram(src="src", dst="dec", payload=late, payload_bytes=64, dst_port=NC_PORT))
        vnf.scheduler.run()
        assert vnf.stale_dropped == 5 + 1     # 12, 16, ..., 28 and this one
        assert 22 not in vnf._decoders[1]
        assert len(vnf._decoders[1]) == 8

    def test_dropping_the_session_leaves_no_decoders(self, rng):
        vnf, _ = drive_bounded_decoder(rng, generations=12)
        vnf.drop_session(1)
        assert 1 not in vnf._decoders and 1 not in vnf.buffers
        assert vnf.decoder_state(1, 11) is None
