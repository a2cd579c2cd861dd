"""Streaming application tests: playout deadlines and continuity."""

import numpy as np
import pytest

from repro.apps.file_transfer import ControlRelay
from repro.apps.streaming import StreamingReceiver, StreamingSource
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import CodingVnf, VnfRole
from repro.net import LinkSpec, Topology
from repro.net.loss import UniformLoss


def make_stream(rng, loss=None, playout_delay_s=0.5):
    topo = Topology(rng=rng)
    topo.add_node("src")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, payload_mode="coefficients-only")
    topo.add_node(relay)
    topo.add_node("dst")
    topo.add_link(LinkSpec("src", "relay", 30.0, 10.0))
    topo.add_link(LinkSpec("relay", "dst", 30.0, 10.0, loss=loss))
    topo.add_link(LinkSpec("dst", "relay", 5.0, 10.0))
    topo.add_link(LinkSpec("relay", "src", 5.0, 10.0))
    session = MulticastSession(source="src", receivers=["dst"], coding=CodingConfig())
    relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
    relay.forwarding_table = ForwardingTable({session.session_id: ["dst"]})
    ControlRelay(relay, "src")
    source = StreamingSource(
        topo.get("src"),
        session,
        link_shares={"relay": 10.0},
        stream_rate_mbps=10.0,
        payload_mode="coefficients-only",
        rng=rng,
    )
    receiver = StreamingReceiver(
        topo.get("dst"),
        session,
        source,
        playout_delay_s=playout_delay_s,
        payload_mode="coefficients-only",
        ack_to="relay",
        stall_generations=8,
    )
    return topo, source, receiver


class TestContinuity:
    def test_clean_stream_all_on_time(self, rng):
        topo, source, receiver = make_stream(rng)
        source.start()
        topo.run(until=2.0)
        source.stop()
        topo.run(until=3.0)
        assert receiver.continuity() > 0.97
        assert receiver.late_generations() <= 2

    def test_latencies_bounded_on_clean_path(self, rng):
        topo, source, receiver = make_stream(rng)
        source.start()
        topo.run(until=1.0)
        lat = receiver.decode_latencies()
        assert lat.size > 0
        assert lat.max() < 0.2  # propagation + decode sync only

    def test_lossy_stream_lower_continuity_with_tight_playout(self, rng):
        topo_clean, src_clean, recv_clean = make_stream(rng, playout_delay_s=0.06)
        src_clean.start()
        topo_clean.run(until=2.0)
        topo_lossy, src_lossy, recv_lossy = make_stream(
            np.random.default_rng(1), loss=UniformLoss(0.3), playout_delay_s=0.06
        )
        src_lossy.start()
        topo_lossy.run(until=2.0)
        # Repairs take an extra RTT: they miss a 60 ms playout budget.
        assert recv_lossy.continuity() < recv_clean.continuity()

    def test_generation_production_clock(self, rng):
        topo, source, receiver = make_stream(rng)
        source.start()
        topo.run(until=1.0)
        t0 = source.generation_produced_at(0)
        t10 = source.generation_produced_at(10)
        assert t10 - t0 == pytest.approx(10 * source._gen_interval_s)

    def test_invalid_playout_delay(self, rng):
        with pytest.raises(ValueError):
            make_stream(rng, playout_delay_s=0.0)

    def test_continuity_zero_before_start(self, rng):
        topo, source, receiver = make_stream(rng)
        assert receiver.continuity() == 0.0
