"""File-transfer application tests: pacing, windowing, NACK repair."""

import numpy as np
import pytest

from repro.apps.file_transfer import ACK_PORT, ControlRelay, NcReceiverApp, NcSourceApp
from repro.core.dataplane import Arq, LiveDeployment, bring_up
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import NC_PORT, CodingVnf, VnfRole
from repro.experiments import butterfly
from repro.net import LinkSpec, Topology
from repro.net.loss import UniformLoss
from repro.net.packet import Datagram
from repro.rlnc.redundancy import RedundancyPolicy


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


def hostile_payloads(sid):
    """Thirteen ways to be wrong on an ACK port, for session ``sid``."""
    return [
        (),
        ("nack",),
        ("cum_ack", sid),
        ("cum_ack", sid, "dst", 5, "extra"),
        ("cum_ack", sid, "dst", None),
        ("nack", sid, 3, 1),
        ("nack", sid, 3, "one", (0,)),
        ("nack", sid, 3, 1, None),
        ("cum_ack", sid + 98, "dst", 5),
        ("nack", sid + 98, 3, 1, (0,)),
        ("reset", sid),
        "cum_ack",
        None,
    ]


class TestHostileControl:
    """Whatever tuple lands on an ACK port — the source's, or a repairing
    relay's on the way there — is a counted drop, never an exception out
    of the event loop (ROADMAP invariants (d))."""

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
        hostile = hostile_payloads(sid + 1)
        source, completed, decoded = self.lossy_transfer(hostile)
        assert source.session.session_id == sid + 1
        assert source.malformed_control == len(hostile)
        assert clean_source.malformed_control == 0 and clean_source.repair_packets > 0
        assert source.repair_packets == clean_source.repair_packets
        assert completed == clean_completed and len(completed) == 120
        assert decoded == clean_decoded

    @staticmethod
    def lossy_butterfly(hostile=()):
        """A ``relay_repair`` butterfly, 20 % loss on T->V2; ``hostile``
        arrives at O1's repairing relay as if O2 had sent it."""
        topo = butterfly.build_butterfly(loss_on_bottleneck=UniformLoss(0.2), jitter_s=0.0, seed=7)
        session = butterfly._make_session(4, 1024, RedundancyPolicy(0))
        live = bring_up(
            LiveDeployment(topo),
            session,
            butterfly.butterfly_wiring(session, 40.0, butterfly._nc_source_shares(40.0, 4, 0)),
            stream=butterfly.STREAM,
            seed=7,
            arq=Arq(window_generations=64),
            relay_repair=True,
            total_generations=120,
        )
        source, receivers = live.endpoints(session.session_id)
        for app in receivers.values():
            app.retain_decoded = True
        for i, message in enumerate(hostile):
            dgram = Datagram(src="O2", dst="O1", payload=message, payload_bytes=32, dst_port=ACK_PORT)
            topo.scheduler.schedule_at(0.05 + 0.04 * i, live.control_relays["O1"]._on_control, dgram)
        live.start()
        live.run(4.0)
        decoded = {
            (name, g): gen.blocks.tobytes()
            for name, app in receivers.items()
            for g, gen in app.decoded_generations.items()
        }
        local_repairs = {name: relay.local_repair_packets for name, relay in live.control_relays.items()}
        return source, local_repairs, decoded

    def test_repairing_relay_forwards_malformed_control_and_serves_none_of_it(self):
        clean_source, clean_repairs, clean_decoded = self.lossy_butterfly()
        source, repairs, decoded = self.lossy_butterfly(hostile_payloads(clean_source.session.session_id + 1))
        # Every payload went upstream (the source counted all thirteen);
        # none of them was served from the relay's buffer.
        assert source.malformed_control == 13 and clean_source.malformed_control == 0
        assert repairs == clean_repairs and sum(repairs.values()) > 0
        assert decoded == clean_decoded and len(decoded) == 2 * 120


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
