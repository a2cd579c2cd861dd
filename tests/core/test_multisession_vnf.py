"""One VNF serving several sessions at once (paper: "We allow each VNF
in the system to encode data for multiple sessions, up to its
capacity")."""

import numpy as np
import pytest

from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig
from repro.core.vnf import NC_PORT, CodingVnf, VnfRole
from repro.net import LinkSpec, Topology
from repro.rlnc import Decoder, Encoder, Generation


@pytest.fixture
def shared_vnf(rng):
    topo = Topology(rng=rng)
    topo.add_node("src")
    vnf = CodingVnf("relay", topo.scheduler, rng=rng)
    topo.add_node(vnf)
    topo.add_node("dst1")
    topo.add_node("dst2")
    topo.add_link(LinkSpec("src", "relay", 100.0, 1.0))
    topo.add_link(LinkSpec("relay", "dst1", 100.0, 1.0))
    topo.add_link(LinkSpec("relay", "dst2", 100.0, 1.0))
    config = CodingConfig(block_bytes=16)
    vnf.configure_session(1, VnfRole.RECODER, config)
    vnf.configure_session(2, VnfRole.FORWARDER, config)
    vnf.forwarding_table = ForwardingTable({1: ["dst1"], 2: ["dst2"]})
    return topo, vnf, config


def send_session(topo, rng, config, session_id, count=5):
    gen = Generation(0, rng.integers(0, 256, (4, config.block_bytes), dtype=np.uint8))
    enc = Encoder(session_id, gen, rng=rng)
    for _ in range(count):
        topo.get("src").send("relay", enc.next_packet(), 64, dst_port=NC_PORT)
    return gen


class TestMultiSession:
    def test_sessions_routed_independently(self, shared_vnf, rng):
        topo, vnf, config = shared_vnf
        got1, got2 = [], []
        topo.get("dst1").listen(NC_PORT, lambda d: got1.append(d.payload))
        topo.get("dst2").listen(NC_PORT, lambda d: got2.append(d.payload))
        gen1 = send_session(topo, rng, config, 1)
        gen2 = send_session(topo, rng, config, 2, count=4)  # systematic only
        topo.run()
        assert all(p.session_id == 1 for p in got1)
        assert all(p.session_id == 2 for p in got2)
        # Session 1 is recoded; session 2 merely forwarded verbatim.
        assert any(not p.header.systematic for p in got1)
        assert all(p.header.systematic for p in got2)

    def test_both_sessions_decodable(self, shared_vnf, rng):
        topo, vnf, config = shared_vnf
        got1, got2 = [], []
        topo.get("dst1").listen(NC_PORT, lambda d: got1.append(d.payload))
        topo.get("dst2").listen(NC_PORT, lambda d: got2.append(d.payload))
        gen1 = send_session(topo, rng, config, 1)
        gen2 = send_session(topo, rng, config, 2)
        topo.run()
        for gen, packets, sid in ((gen1, got1, 1), (gen2, got2, 2)):
            dec = Decoder(sid, 0, 4, config.block_bytes)
            for p in packets:
                if not dec.complete:
                    dec.add(p)
            assert dec.complete and dec.decode() == gen

    def test_per_session_state_isolated(self, shared_vnf, rng):
        topo, vnf, config = shared_vnf
        send_session(topo, rng, config, 1)
        send_session(topo, rng, config, 2)
        topo.run()
        assert set(vnf.buffers) == {1, 2}
        assert vnf._relays[1] and not vnf._relays[2]  # only session 1 recodes
        vnf.drop_session(1)
        assert set(vnf.buffers) == {2}
        assert 1 not in vnf._relays

    def test_shared_service_queue(self, shared_vnf, rng):
        # Both sessions contend for the same per-packet service capacity
        # (the paper's C(v) covers the whole VNF, not each session).
        topo, vnf, config = shared_vnf
        send_session(topo, rng, config, 1, count=3)
        send_session(topo, rng, config, 2, count=3)
        topo.run()
        assert vnf.processed_packets == 6
