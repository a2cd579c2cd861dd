"""Generation-level feedback: NACK emit, retry cap, backoff, relay repair.

The data-plane half of the self-healing layer.  Receivers NACK stalled
generations with exponential backoff and a hard retry cap; sources
answer with fresh coded packets; recoding VNFs can optionally answer
from their buffered coded state (:class:`RepairingControlRelay`), with
the source remaining the repairer of last resort.
"""

import numpy as np
import pytest

from repro.apps.file_transfer import (
    ACK_PORT,
    ControlRelay,
    NcReceiverApp,
    NcSourceApp,
    RepairingControlRelay,
)
from repro.core.forwarding import ForwardingTable
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import NC_PORT, CodingVnf, VnfRole
from repro.net import LinkSpec, Topology
from repro.rlnc.encoder import Encoder
from repro.rlnc.generation import Generation


def make_session():
    return MulticastSession(source="src", receivers=["dst"], coding=CodingConfig())


def two_node_topology(rng):
    """src <-> dst with a control sink recording what reaches src."""
    topo = Topology(rng=rng)
    topo.add_node("src")
    topo.add_node("dst")
    topo.add_link(LinkSpec("src", "dst", 50.0, 5.0))
    topo.add_link(LinkSpec("dst", "src", 5.0, 5.0))
    control_log = []
    topo.get("src").listen(ACK_PORT, lambda dgram: control_log.append((topo.scheduler.now, dgram.payload)))
    return topo, control_log


def feed_packets(topo, receiver, session, generation_id, count, rng):
    """Deliver ``count`` coded packets of one generation to the receiver."""
    k = session.coding.blocks_per_generation
    data = rng.integers(0, 256, size=(k, 4), dtype=np.uint8)
    generation = Generation(generation_id=generation_id, blocks=data)
    encoder = Encoder(session.session_id, generation, field=session.coding.galois_field, rng=rng)
    for _ in range(count):
        topo.get("src").send("dst", encoder.next_packet(), 64, dst_port=NC_PORT)


class TestNackEmit:
    def test_stalled_generation_triggers_nack(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.1,
        )
        k = session.coding.blocks_per_generation
        feed_packets(topo, receiver, session, 0, k - 1, rng)  # one dof short
        topo.run(until=1.0)
        nacks = [m for _, m in control_log if m[0] == "nack"]
        assert nacks, "a generation one dof short must be NACKed after the stall timeout"
        _, sid, gen_id, missing_dof, _ = nacks[0]
        assert sid == session.session_id
        assert gen_id == 0
        assert missing_dof == 1
        assert receiver.nacks_sent == len(nacks)

    def test_complete_generation_never_nacked(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.1,
        )
        k = session.coding.blocks_per_generation
        feed_packets(topo, receiver, session, 0, k + 1, rng)
        topo.run(until=1.0)
        assert len(receiver.completed) == 1
        assert not [m for _, m in control_log if m[0] == "nack"]


class TestRetryCapAndBackoff:
    def test_retry_cap_bounds_total_nacks(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.05,
            nack_retry_s=0.05, nack_retry_max_s=0.2, max_nacks_per_generation=5,
        )
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=10.0)  # far beyond the whole backoff schedule
        nacks = [m for _, m in control_log if m[0] == "nack"]
        assert len(nacks) == 5  # capped: a typed giveup, not a NACK loop

    def test_backoff_schedule_shape(self, rng):
        topo, _ = two_node_topology(rng)
        receiver = NcReceiverApp(topo.get("dst"), make_session(), ack_to="src")
        # Defaults: 0.4 s base, ×2 per retry, capped at 3.2 s, 8 tries.
        assert receiver.nack_backoff_schedule() == [0.4, 0.8, 1.6, 3.2, 3.2, 3.2, 3.2, 3.2]

    def test_retry_spacing_grows_exponentially(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.05,
            nack_retry_s=0.1, nack_backoff=2.0, nack_retry_max_s=10.0,
            max_nacks_per_generation=4, ack_interval_s=0.01,
        )
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=5.0)
        times = [t for t, m in control_log if m[0] == "nack"]
        assert len(times) == 4
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Successive retry gaps double (to ack-tick quantization).
        assert gaps[1] == pytest.approx(2 * gaps[0], abs=0.02)
        assert gaps[2] == pytest.approx(2 * gaps[1], abs=0.02)

    def test_backoff_below_one_rejected(self, rng):
        topo, _ = two_node_topology(rng)
        with pytest.raises(ValueError):
            NcReceiverApp(topo.get("dst"), make_session(), nack_backoff=0.5)


class TestNackRankDedup:
    """A pending retry whose generation gained rank must not re-fire.

    When the adaptive controller raises redundancy, repair-equivalent
    coded packets arrive that the in-flight backoff timer knows nothing
    about; re-requesting repair for dof the new packets already covered
    wastes source repair budget.  The dedupe keys on (generation, rank):
    rank progress since the last NACK suppresses the retry and restarts
    the backoff clock instead of spending the retry budget.
    """

    def _receiver(self, topo, session):
        return NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.05,
            nack_retry_s=0.2, nack_backoff=2.0, nack_retry_max_s=5.0,
            max_nacks_per_generation=4, ack_interval_s=0.01,
        )

    def _feeder(self, topo, session, rng):
        """A persistent encoder: later packets keep advancing the rank.

        (A fresh ``feed_packets`` encoder would restart from the
        systematic prefix and replay pivots the decoder already has.)
        """
        k = session.coding.blocks_per_generation
        data = rng.integers(0, 256, size=(k, 4), dtype=np.uint8)
        encoder = Encoder(
            session.session_id,
            Generation(generation_id=0, blocks=data),
            field=session.coding.galois_field,
            rng=rng,
        )

        def feed(count):
            for _ in range(count):
                topo.get("src").send("dst", encoder.next_packet(), 64, dst_port=NC_PORT)

        return feed

    def test_rank_progress_suppresses_retry(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed = self._feeder(topo, session, rng)
        k = session.coding.blocks_per_generation
        feed(k - 2)  # two dof short
        topo.run(until=0.1)  # past the stall timeout: first NACK out
        assert receiver.nacks_sent == 1
        # One more dof lands (a redundancy packet the retune bought)
        # before the 0.2 s retry clock fires.
        feed(1)
        topo.run(until=0.55)
        # The retry due at ~0.26 was suppressed (rank moved), and the
        # clock restarted: the next real NACK fires ~0.2 s later.
        assert receiver.nacks_suppressed == 1
        nacks = [m for _, m in control_log if m[0] == "nack"]
        assert len(nacks) == 2
        assert nacks[-1][3] == 1  # still one dof short after the progress

    def test_stagnant_rank_still_retries(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=0.45)  # no progress between NACKs
        assert receiver.nacks_suppressed == 0
        assert len([m for _, m in control_log if m[0] == "nack"]) == 2

    def test_suppression_does_not_spend_retry_budget(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed = self._feeder(topo, session, rng)
        k = session.coding.blocks_per_generation
        feed(k - 3)
        topo.run(until=0.1)
        # Two separate progress events, each suppressing one retry.
        feed(1)
        topo.run(until=0.45)
        feed(1)
        topo.run(until=10.0)  # exhaust the whole backoff schedule
        nacks = [m for _, m in control_log if m[0] == "nack"]
        # The cap still allows max_nacks_per_generation real NACKs:
        # suppressed retries restarted the clock without spending it.
        assert receiver.nacks_suppressed == 2
        assert len(nacks) == 4


class TestRetargetAcks:
    def test_acks_move_to_the_new_hop(self, rng):
        topo = Topology(rng=rng)
        for name in ("a", "b", "dst"):
            topo.add_node(name)
        topo.add_link(LinkSpec("dst", "a", 5.0, 1.0))
        topo.add_link(LinkSpec("dst", "b", 5.0, 1.0))
        got_a, got_b = [], []
        topo.get("a").listen(ACK_PORT, lambda d: got_a.append(d.payload))
        topo.get("b").listen(ACK_PORT, lambda d: got_b.append(d.payload))
        receiver = NcReceiverApp(topo.get("dst"), make_session(), ack_to="a", ack_interval_s=0.05)
        topo.run(until=0.2)
        assert got_a and not got_b
        receiver.retarget_acks("b")
        topo.run(until=0.25)  # drain anything already in flight toward a
        before = len(got_a)
        topo.run(until=0.5)
        assert len(got_a) == before  # nothing new toward the old hop
        assert got_b

    def test_retarget_to_none_silences_control(self, rng):
        topo, control_log = two_node_topology(rng)
        receiver = NcReceiverApp(topo.get("dst"), make_session(), ack_to="src", ack_interval_s=0.05)
        topo.run(until=0.2)
        assert control_log
        receiver.retarget_acks(None)
        topo.run(until=0.25)  # drain in-flight datagrams
        before = len(control_log)
        topo.run(until=0.5)
        assert len(control_log) == before


def relay_topology(rng):
    """up -> relay(CodingVnf) -> dst, with reverse control links."""
    topo = Topology(rng=rng)
    topo.add_node("up")
    relay = CodingVnf("relay", topo.scheduler, rng=rng, payload_mode="coefficients-only")
    topo.add_node(relay)
    topo.add_node("dst")
    topo.add_link(LinkSpec("up", "relay", 50.0, 1.0))
    topo.add_link(LinkSpec("relay", "dst", 50.0, 1.0))
    topo.add_link(LinkSpec("dst", "relay", 5.0, 1.0))
    topo.add_link(LinkSpec("relay", "up", 5.0, 1.0))
    return topo, relay


def prime_relay(topo, relay, session, rng, packets=4):
    """Run coded packets of generation 0 through the relay's recoder."""
    relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
    relay.forwarding_table = ForwardingTable({session.session_id: ["dst"]})
    k = session.coding.blocks_per_generation
    data = rng.integers(0, 256, size=(k, 4), dtype=np.uint8)
    generation = Generation(generation_id=0, blocks=data)
    encoder = Encoder(session.session_id, generation, field=session.coding.galois_field, rng=rng)
    for _ in range(packets):
        topo.get("up").send("relay", encoder.next_packet(), 64, dst_port=NC_PORT)
    topo.run(until=0.5)


class TestEmitRepair:
    def test_repairs_come_from_buffered_state(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        prime_relay(topo, relay, session, rng)
        baseline = len(received)
        sent = relay.emit_repair(session.session_id, 0, 3)
        topo.run(until=1.0)
        assert sent == 3
        assert len(received) == baseline + 3
        assert all(p.generation_id == 0 for p in received[baseline:])

    def test_unknown_generation_yields_zero(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        prime_relay(topo, relay, session, rng)
        assert relay.emit_repair(session.session_id, 999, 2) == 0
        assert relay.emit_repair(999, 0, 2) == 0
        assert relay.emit_repair(session.session_id, 0, 0) == 0


class TestRepairingControlRelay:
    def _nack(self, topo, session, missing_dof=2):
        topo.get("dst").send(
            "relay",
            ("nack", session.session_id, 0, missing_dof, ()),
            64,
            dst_port=ACK_PORT,
        )

    def test_nack_forwarded_and_served_locally(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        upstream, downstream = [], []
        topo.get("up").listen(ACK_PORT, lambda d: upstream.append(d.payload))
        topo.get("dst").listen(NC_PORT, lambda d: downstream.append(d.payload))
        prime_relay(topo, relay, session, rng)
        control = RepairingControlRelay(relay, "up", relay)
        baseline = len(downstream)
        self._nack(topo, session)
        topo.run(until=1.0)
        # The NACK still reaches the source path (repairer of last resort) …
        assert upstream and upstream[0][0] == "nack"
        # … and the relay answered it locally from buffered coded state.
        assert control.local_repair_packets == 2
        assert len(downstream) == baseline + 2

    def test_local_service_is_capped_per_generation(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        upstream = []
        topo.get("up").listen(ACK_PORT, lambda d: upstream.append(d.payload))
        prime_relay(topo, relay, session, rng)
        control = RepairingControlRelay(relay, "up", relay, max_served_nacks_per_generation=2)
        for _ in range(5):
            self._nack(topo, session, missing_dof=1)
            topo.run(until=topo.scheduler.now + 0.2)
        assert control.nacks_seen == 5
        assert control.local_repair_packets == 2  # two servings, then pure forwarding
        assert len(upstream) == 5  # every NACK still went upstream

    def test_plain_relay_retargets(self, rng):
        topo, relay = relay_topology(rng)
        got_up, got_dst = [], []
        topo.get("up").listen(ACK_PORT, lambda d: got_up.append(d.payload))
        topo.get("dst").listen(ACK_PORT, lambda d: got_dst.append(d.payload))
        control = ControlRelay(relay, "up")
        topo.get("dst").send("relay", ("cum_ack", 1, "dst", 5), 64, dst_port=ACK_PORT)
        topo.run(until=0.2)
        assert got_up and got_up[-1][0] == "cum_ack"
        control.retarget("dst")
        topo.get("dst").send("relay", ("cum_ack", 1, "dst", 6), 64, dst_port=ACK_PORT)
        topo.run(until=0.4)
        assert got_dst and got_dst[-1] == ("cum_ack", 1, "dst", 6)


class TestHopShapeClearing:
    def test_zero_skip_clears_the_shape(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
        relay.set_hop_shape(session.session_id, "dst", 2)
        assert "dst" in relay._hop_shapes[session.session_id]
        relay.set_hop_shape(session.session_id, "dst", 0)
        assert "dst" not in relay._hop_shapes[session.session_id]

    def test_cleared_shape_restores_default_pipelining(self, rng):
        topo, relay = relay_topology(rng)
        session = make_session()
        received = []
        topo.get("dst").listen(NC_PORT, lambda d: received.append(d.payload))
        relay.configure_session(session.session_id, VnfRole.RECODER, session.coding)
        relay.forwarding_table = ForwardingTable({session.session_id: ["dst"]})
        relay.set_hop_shape(session.session_id, "dst", 2)
        relay.set_hop_shape(session.session_id, "dst", 0)  # clear before traffic
        prime_relay(topo, relay, session, rng)
        # Default pipelining: one out per in (4 packets in -> 4 out).
        assert len(received) == 4
