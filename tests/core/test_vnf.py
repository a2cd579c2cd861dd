"""Data-plane coding VNF tests."""

import hashlib

import numpy as np
import pytest

from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig
from repro.core.vnf import NC_PORT, CodingVnf, VnfDispatcher, VnfRole
from repro.net import LinkSpec, Topology
from repro.rlnc import Decoder, Encoder, Generation


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
        vnfs[0].set_hop_shape(1, "dst", skip_arrivals=2, emit_per_generation=2)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=6)
        topo.run()
        assert len(received) == 2  # arrivals 3 and 4 trigger, cap at 2

    def test_shaped_emissions_are_recodes(self, rng):
        topo, vnfs, config = make_chain(rng)
        vnfs[0].set_hop_shape(1, "dst", skip_arrivals=2, emit_per_generation=2)
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        send_generation(topo, rng, config, count=4)
        topo.run()
        assert all(not p.header.systematic for p in received)

    def test_invalid_shape(self, rng):
        _, vnfs, _ = make_chain(rng)
        with pytest.raises(ValueError):
            vnfs[0].set_hop_shape(1, "dst", -1, 2)


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


def drive_bounded_relay(rng, generations=40, on_generation=None):
    """A buffer_generations=8 recoder with two shaped next hops, under
    duplicates and stragglers; returns (relay, emitted packet digest).

    Per generation: four systematic packets and one coded; every fifth
    generation repeats its second packet on the wire, every fourth (from
    12 on) is followed by a straggler for the generation ten back, which
    the eight-deep buffer evicted long ago.
    """
    topo = Topology(rng=rng)
    topo.add_node("src")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, coding_overhead_s=0.0)
    topo.add_node(relay)
    config = CodingConfig(block_bytes=16, buffer_generations=8)
    relay.configure_session(1, VnfRole.RECODER, config)
    relay.forwarding_table = ForwardingTable({1: ["left", "right"]})
    relay.set_hop_shape(1, "left", skip_arrivals=1)
    relay.set_hop_shape(1, "right", skip_arrivals=2, emit_per_generation=2)
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
    sent = {}
    for gen_id in range(generations):
        blocks = rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8)
        sent[gen_id] = Encoder(1, Generation(gen_id, blocks), rng=rng).next_packets(5)
        burst = list(sent[gen_id])
        if gen_id % 5 == 0:
            burst.insert(2, burst[1])
        if gen_id >= 12 and gen_id % 4 == 0:
            burst.append(sent[gen_id - 10][0])
        for packet in burst:
            src.send("relay", packet, 64, dst_port=NC_PORT)
        topo.run()
        if on_generation is not None:
            on_generation(relay)
    return relay, digest.hexdigest()


class TestBoundedRelayState:
    """Relay state is one record per *buffered* generation, whatever
    the stream length; the buffer's eviction report keeps it so."""

    #: drive_bounded_relay(default_rng(12345)) at the commit before the
    #: relay-state rewrite (set-diff eviction, (session, hop, generation)
    #: progress keys): the emitted (generation, coefficients, payload)
    #: sequence must not move.
    PARENT_DIGEST = "1b4012758f751d7c86f1090b954a4bb3a580058ef45a3a56f15305b9b400602d"

    def test_state_tracks_the_buffer_and_output_is_unchanged(self, rng):
        def bounded(relay):
            buffered = set(relay.buffers[1].generations())
            assert len(buffered) <= 8
            assert set(relay._relays[1]) == buffered

        relay, digest = drive_bounded_relay(rng, on_generation=bounded)
        assert set(relay._relays[1]) == set(range(32, 40))
        for state in relay._relays[1].values():
            assert state.hop_progress == {"left": [5, 4], "right": [5, 2]}
        assert relay.duplicate_dropped == 8   # generations 0, 5, ..., 35
        assert relay.stale_dropped == 7       # after generations 12, 16, ..., 36
        assert relay.processed_packets == 40 * 5 + 8 + 7
        assert relay.emitted_packets == 40 * (4 + 2)
        assert digest == self.PARENT_DIGEST

    def test_clearing_a_shape_and_dropping_the_session_leave_no_progress(self, rng):
        relay, _ = drive_bounded_relay(rng, generations=12)
        relay.set_hop_shape(1, "left", 0)
        assert (1, "left") not in relay._hop_shapes
        assert all(set(state.hop_progress) == {"right"} for state in relay._relays[1].values())
        relay.drop_session(1)
        assert 1 not in relay._relays and 1 not in relay.buffers
        assert not relay._hop_shapes
