"""Generation-level feedback: NACK emit, retry clock, repair routing.

The data-plane half of the self-healing layer.  Receivers NACK stalled
generations on a measured retry clock (RFC 6298's RTO over their own
NACK → decode times, doubled per retry and capped) with a hard retry
cap; sources answer with fresh coded packets back down the hop each
NACK came up; recoding VNFs can optionally answer from their buffered
coded state (:class:`RepairingControlRelay`), with the source remaining
the repairer of last resort.
"""

import numpy as np
import pytest

from repro.apps.file_transfer import (
    ACK_PORT,
    INITIAL_RTO_S,
    MAX_NACKS_PER_GENERATION,
    MAX_SERVED_NACKS_PER_GENERATION,
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


def persistent_feeder(topo, session, rng):
    """A persistent encoder for generation 0: every packet it feeds is
    innovative (a fresh ``feed_packets`` encoder would restart from the
    systematic prefix and replay pivots the decoder already has)."""
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
        )
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=30.0)  # far beyond the whole backoff schedule (≈ 15.7 s)
        nacks = [m for _, m in control_log if m[0] == "nack"]
        assert len(nacks) == MAX_NACKS_PER_GENERATION == 8  # capped: a typed giveup, not a NACK loop

    def test_backoff_schedule_shape(self, rng):
        topo, _ = two_node_topology(rng)
        receiver = NcReceiverApp(topo.get("dst"), make_session(), ack_to="src")
        # Before any sample: 0.4 s, ×2 per retry, capped at 8 RTOs, 8 tries.
        assert receiver.nack_backoff_schedule() == [0.4, 0.8, 1.6, 3.2, 3.2, 3.2, 3.2, 3.2]

    def test_retry_spacing_grows_exponentially(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = NcReceiverApp(
            topo.get("dst"), session, payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.05, ack_interval_s=0.01,
        )
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=5.0)  # NACKs at ≈ 0.06, 0.46, 1.26, 2.86; the fifth is due at 6.06
        times = [t for t, m in control_log if m[0] == "nack"]
        assert len(times) == 4
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Successive retry gaps double (to ack-tick quantization).
        assert gaps[0] == pytest.approx(INITIAL_RTO_S, abs=0.02)
        assert gaps[1] == pytest.approx(2 * gaps[0], abs=0.02)
        assert gaps[2] == pytest.approx(2 * gaps[1], abs=0.02)


class TestMeasuredRetryClock:
    """The retry wait is RFC 6298's RTO over NACK → decode times."""

    def _receiver(self, topo, session=None, ack_interval_s=0.03):
        return NcReceiverApp(
            topo.get("dst"), session or make_session(), payload_mode="coefficients-only", ack_to="src",
            stall_generations=2, stall_timeout_s=0.05, ack_interval_s=ack_interval_s,
        )

    def test_first_sample_sets_rto_to_three_rtts(self, rng):
        topo, _ = two_node_topology(rng)
        receiver = self._receiver(topo)
        receiver._sample_rtt(0.1)  # srtt = R, rttvar = R/2: rto = R + 4·R/2
        # Doubling per retry, capped at 8·rto.
        assert receiver.nack_backoff_schedule() == pytest.approx([0.3, 0.6, 1.2, 2.4, 2.4, 2.4, 2.4, 2.4])

    def test_later_samples_smooth_with_alpha_and_beta(self, rng):
        topo, _ = two_node_topology(rng)
        receiver = self._receiver(topo)
        receiver._sample_rtt(0.1)
        receiver._sample_rtt(0.2)
        # rttvar = 3/4·0.05 + 1/4·|0.1 − 0.2|, then srtt = 7/8·0.1 + 1/8·0.2
        rttvar, srtt = 0.0625, 0.1125
        assert receiver.nack_retry_interval_s(1) == pytest.approx(srtt + 4 * rttvar)

    def test_rto_floor_is_one_ack_tick(self, rng):
        topo, _ = two_node_topology(rng)
        receiver = self._receiver(topo, ack_interval_s=0.03)
        receiver._sample_rtt(0.001)  # 4·rttvar = 2 ms is finer than the clock
        assert receiver.nack_retry_interval_s(1) == pytest.approx(0.001 + 0.03)

    def _nack_then_repair(self, topo, rng, repair_at):
        """One dof short and NACKed; the missing dof is sent at ``repair_at``."""
        session = make_session()
        receiver = self._receiver(topo, session, ack_interval_s=0.01)
        sent_at = []
        send_control = receiver._send_control

        def record(message):
            if message[0] == "nack":
                sent_at.append(topo.scheduler.now)
            send_control(message)

        receiver._send_control = record
        feed = persistent_feeder(topo, session, rng)
        feed(session.coding.blocks_per_generation - 1)
        topo.run(until=repair_at)
        feed(1)
        topo.run(until=repair_at + 0.1)
        assert 0 in receiver.completed
        return receiver, sent_at

    def test_a_once_nacked_generation_is_sampled(self, rng):
        topo, _ = two_node_topology(rng)
        receiver, sent_at = self._nack_then_repair(topo, rng, repair_at=0.2)
        assert len(sent_at) == 1
        sample = receiver.completed[0] - sent_at[0]
        assert receiver.nack_retry_interval_s(1) == pytest.approx(3 * sample)

    def test_karn_rule_a_twice_nacked_generation_is_not_sampled(self, rng):
        topo, _ = two_node_topology(rng)
        receiver, sent_at = self._nack_then_repair(topo, rng, repair_at=0.6)
        # NACKs at ≈ 0.06 and ≈ 0.46: which one did the repair answer?
        assert len(sent_at) == 2
        assert receiver.nack_retry_interval_s(1) == INITIAL_RTO_S


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
            stall_generations=2, stall_timeout_s=0.05, ack_interval_s=0.01,
        )

    def test_rank_progress_suppresses_retry(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed = persistent_feeder(topo, session, rng)
        k = session.coding.blocks_per_generation
        feed(k - 2)  # two dof short
        topo.run(until=0.1)  # past the stall timeout: first NACK out
        assert receiver.nacks_sent == 1
        # One more dof lands (a redundancy packet the retune bought)
        # before the 0.4 s retry clock fires.
        feed(1)
        topo.run(until=1.0)
        # The retry due at ~0.46 was suppressed (rank moved), and the
        # clock restarted: the next real NACK fires ~0.4 s later.
        assert receiver.nacks_suppressed == 1
        nacks = [m for _, m in control_log if m[0] == "nack"]
        assert len(nacks) == 2
        assert nacks[-1][3] == 1  # still one dof short after the progress

    def test_stagnant_rank_still_retries(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed_packets(topo, receiver, session, 0, session.coding.blocks_per_generation - 1, rng)
        topo.run(until=0.9)  # no progress between NACKs (≈ 0.06, 0.46; the third is due at 1.26)
        assert receiver.nacks_suppressed == 0
        assert len([m for _, m in control_log if m[0] == "nack"]) == 2

    def test_suppression_does_not_spend_retry_budget(self, rng):
        topo, control_log = two_node_topology(rng)
        session = make_session()
        receiver = self._receiver(topo, session)
        feed = persistent_feeder(topo, session, rng)
        k = session.coding.blocks_per_generation
        feed(k - 3)
        topo.run(until=0.1)
        # Two separate progress events, each suppressing one retry (due
        # at ≈ 0.46 and, the clock restarted, at ≈ 0.86).
        feed(1)
        topo.run(until=0.7)
        feed(1)
        topo.run(until=30.0)  # exhaust the whole backoff schedule
        nacks = [m for _, m in control_log if m[0] == "nack"]
        # The cap still allows MAX_NACKS_PER_GENERATION real NACKs:
        # suppressed retries restarted the clock without spending it.
        assert receiver.nacks_suppressed == 2
        assert len(nacks) == MAX_NACKS_PER_GENERATION


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


def fork_topology(rng):
    """src forks to next hops a and b (two disjoint branches); c is a
    node with a control link to src but no data link from it."""
    topo = Topology(rng=rng)
    for name in ("src", "a", "b", "c"):
        topo.add_node(name)
    for hop in ("a", "b"):
        topo.add_link(LinkSpec("src", hop, 50.0, 1.0))
        topo.add_link(LinkSpec(hop, "src", 5.0, 1.0))
    topo.add_link(LinkSpec("c", "src", 5.0, 1.0))
    arrived = {"a": [], "b": []}
    for hop, log in arrived.items():
        topo.get(hop).listen(NC_PORT, lambda d, log=log: log.append(d.payload))
    source = NcSourceApp(
        topo.get("src"),
        make_session(),
        link_shares={"a": 10.0, "b": 10.0},
        data_rate_mbps=10.0,
        payload_mode="coefficients-only",
        rng=rng,
        total_generations=1,
    )
    source.start()
    topo.run(until=0.2)  # generation 0 delivered and cached
    return topo, source, arrived


class TestRepairRouting:
    """A repair goes back down the hop its NACK came up."""

    @staticmethod
    def _nack(topo, source, via, at, missing_dof):
        message = ("nack", source.session.session_id, 0, missing_dof, ())
        topo.scheduler.schedule_at(at, topo.get(via).send, "src", message, 64, ACK_PORT)

    def test_disjoint_branches_each_get_their_own_repair(self, rng):
        topo, source, arrived = fork_topology(rng)
        before = {hop: len(log) for hop, log in arrived.items()}
        # Both receivers NACK generation 0, 5 ms apart, for 2 and 3 dof.
        self._nack(topo, source, "a", 0.3, missing_dof=2)
        self._nack(topo, source, "b", 0.305, missing_dof=3)
        topo.run(until=1.0)
        repairs = {hop: log[before[hop]:] for hop, log in arrived.items()}
        # missing + 1 each, on its own hop: neither NACK is dropped as a
        # duplicate, and no repair strays onto the other branch.
        assert {hop: len(got) for hop, got in repairs.items()} == {"a": 3, "b": 4}
        assert all(p.generation_id == 0 for got in repairs.values() for p in got)
        assert source.repair_packets == 7

    def test_nack_from_a_non_next_hop_is_answered_on_every_hop(self, rng):
        topo, source, arrived = fork_topology(rng)
        before = {hop: len(log) for hop, log in arrived.items()}
        # c is not a next hop (as for a NACK that crossed a reconfigure).
        self._nack(topo, source, "c", 0.3, missing_dof=1)
        topo.run(until=1.0)
        assert {hop: len(log) - before[hop] for hop, log in arrived.items()} == {"a": 2, "b": 2}


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
        control = RepairingControlRelay(relay, "up", relay)
        for _ in range(5):
            self._nack(topo, session, missing_dof=1)
            topo.run(until=topo.scheduler.now + 0.2)
        assert control.nacks_seen == 5
        # MAX_SERVED_NACKS_PER_GENERATION servings, then pure forwarding.
        assert control.local_repair_packets == MAX_SERVED_NACKS_PER_GENERATION == 2
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
