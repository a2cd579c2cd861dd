"""File-transfer application tests: pacing, windowing, NACK repair."""

import numpy as np
import pytest

from repro.apps.file_transfer import ACK_PORT, ControlRelay, NcReceiverApp, NcSourceApp
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import NC_PORT, CodingVnf, VnfRole
from repro.net import LinkSpec, Topology
from repro.net.loss import UniformLoss
from repro.net.packet import Datagram


def line_topology(rng, loss=None, capacity=50.0):
    """src -> relay -> dst data path with a clean reverse control path."""
    topo = Topology(rng=rng)
    topo.add_node("src")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, payload_mode="coefficients-only")
    topo.add_node(relay)
    topo.add_node("dst")
    topo.add_link(LinkSpec("src", "relay", capacity, 5.0))
    topo.add_link(LinkSpec("relay", "dst", capacity, 5.0, loss=loss))
    topo.add_link(LinkSpec("dst", "relay", 5.0, 5.0))
    topo.add_link(LinkSpec("relay", "src", 5.0, 5.0))
    return topo, relay


def make_session():
    return MulticastSession(source="src", receivers=["dst"], coding=CodingConfig())


def wire_session(topo, relay, session, rng, loss_repair=True, **source_kwargs):
    relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
    relay.forwarding_table = ForwardingTable({session.session_id: ["dst"]})
    ControlRelay(relay, "src")
    receiver = NcReceiverApp(
        topo.get("dst"),
        session,
        payload_mode="coefficients-only",
        ack_to="relay",
        stall_generations=8,
    )
    source = NcSourceApp(
        topo.get("src"),
        session,
        link_shares={"relay": 20.0},
        data_rate_mbps=20.0,
        payload_mode="coefficients-only",
        rng=rng,
        **source_kwargs,
    )
    return source, receiver


class TestPacing:
    def test_clean_link_full_goodput(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng)
        source.start()
        topo.run(until=2.0)
        assert receiver.goodput_mbps(start_s=0.2) == pytest.approx(20.0, rel=0.1)

    def test_generation_count_matches_rate(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng)
        source.start()
        topo.run(until=1.0)
        expected = 20e6 / (session.coding.generation_bytes * 8)
        assert source.sent_generations == pytest.approx(expected, rel=0.05)

    def test_total_generations_limit(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng, total_generations=10)
        source.start()
        topo.run(until=2.0)
        assert source.sent_generations == 10
        assert len(receiver.completed) == 10

    def test_stop(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng)
        source.start()
        topo.run(until=0.5)
        source.stop()
        sent = source.sent_generations
        topo.run(until=1.0)
        assert source.sent_generations == sent


class TestReliability:
    def test_loss_repaired_by_nacks(self, rng):
        topo, relay = line_topology(rng, loss=UniformLoss(0.2))
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng, window_generations=256)
        source.start()
        topo.run(until=4.0)
        assert receiver.nacks_sent > 0
        assert source.repair_packets > 0
        # Despite 20% loss, the overwhelming majority of generations complete.
        assert len(receiver.completed) >= 0.9 * source.sent_generations

    def test_window_stalls_without_acks(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng, window_generations=16)
        receiver.stop_acks()  # simulate a dead control path
        receiver.ack_to = None
        source.start()
        topo.run(until=2.0)
        assert source.sent_generations == 16  # window exhausted, then stall
        assert source._stalled

    def test_cum_ack_advances_window(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng, window_generations=16)
        source.start()
        topo.run(until=2.0)
        assert source.sent_generations > 100  # flowing freely

    def test_uncoded_mode_roundtrip(self, rng):
        topo, relay = line_topology(rng)
        relay_config = make_session()
        session = relay_config
        relay.configure_session(session.session_id, VnfRole.FORWARDER, session.coding)
        relay.forwarding_table = ForwardingTable({session.session_id: ["dst"]})
        ControlRelay(relay, "src")
        receiver = NcReceiverApp(topo.get("dst"), session, payload_mode="coefficients-only", ack_to="relay")
        source = NcSourceApp(
            topo.get("src"),
            session,
            link_shares={"relay": 20.0},
            data_rate_mbps=20.0,
            coded=False,
            payload_mode="coefficients-only",
            rng=rng,
        )
        source.start()
        topo.run(until=1.0)
        assert len(receiver.completed) >= 0.95 * source.sent_generations


class TestHostileControl:
    """Whatever tuple lands on the source's ACK port is a counted drop,
    never an exception out of the event loop (ROADMAP invariants (d))."""

    @staticmethod
    def lossy_transfer(hostile=()):
        rng = np.random.default_rng(12345)
        topo, relay = line_topology(rng, loss=UniformLoss(0.2))
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng, window_generations=64, total_generations=120)
        receiver.retain_decoded = True
        for i, message in enumerate(hostile):
            dgram = Datagram(src="relay", dst="src", payload=message, payload_bytes=32, dst_port=ACK_PORT)
            topo.scheduler.schedule_at(0.05 + 0.04 * i, source._on_control, dgram)
        source.start()
        topo.run(until=4.0)
        decoded = {g: gen.blocks.tobytes() for g, gen in receiver.decoded_generations.items()}
        return source, receiver.completed, decoded

    def test_malformed_control_is_counted_and_changes_nothing(self):
        clean_source, clean_completed, clean_decoded = self.lossy_transfer()
        sid = clean_source.session.session_id  # ids are process-global: the next session gets sid + 1
        hostile = [
            (),
            ("nack",),
            ("cum_ack", sid + 1),
            ("cum_ack", sid + 1, "dst", 5, "extra"),
            ("cum_ack", sid + 1, "dst", None),
            ("nack", sid + 1, 3, 1),
            ("nack", sid + 1, 3, "one", (0,)),
            ("nack", sid + 1, 3, 1, None),
            ("cum_ack", sid + 99, "dst", 5),
            ("nack", sid + 99, 3, 1, (0,)),
            ("reset", sid + 1),
            "cum_ack",
            None,
        ]
        source, completed, decoded = self.lossy_transfer(hostile)
        assert source.session.session_id == sid + 1
        assert source.malformed_control == len(hostile)
        assert clean_source.malformed_control == 0 and clean_source.repair_packets > 0
        assert source.repair_packets == clean_source.repair_packets
        assert completed == clean_completed and len(completed) == 120
        assert decoded == clean_decoded


class TestMetrics:
    def test_throughput_series_sums_to_goodput(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        source, receiver = wire_session(topo, relay, session, rng)
        source.start()
        topo.run(until=2.0)
        times, rates = receiver.throughput_series(window_s=0.25, duration_s=2.0)
        assert len(times) == len(rates) == 8
        total_from_series = sum(rates) * 0.25 * 1e6 / 8
        total = len(receiver.completed) * session.coding.generation_bytes
        assert total_from_series == pytest.approx(total, rel=0.05)

    def test_invalid_series_args(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        _, receiver = wire_session(topo, relay, session, rng)
        with pytest.raises(ValueError):
            receiver.throughput_series(0, 1)


class TestValidation:
    def test_bad_source_args(self, rng):
        topo, relay = line_topology(rng)
        session = make_session()
        with pytest.raises(ValueError):
            NcSourceApp(topo.get("src"), session, link_shares={}, data_rate_mbps=1.0)
        with pytest.raises(ValueError):
            NcSourceApp(topo.get("src"), session, link_shares={"relay": 1.0}, data_rate_mbps=0.0)
        with pytest.raises(ValueError):
            NcSourceApp(
                topo.get("src"), session, link_shares={"relay": 1.0}, data_rate_mbps=1.0, window_generations=0
            )
