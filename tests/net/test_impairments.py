"""Dirty-wire impairment tests: corruption, duplication, blackhole, resets."""

import numpy as np
import pytest

from repro.net.impairments import (
    BitFlipCorruption,
    Blackhole,
    Duplication,
    corrupt_coded_packet,
)
from repro.net.link import Link
from repro.net.loss import BurstLoss
from repro.net.packet import Datagram
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket


def make_link(scheduler, capacity_mbps=8.0, delay_ms=10.0, **kwargs):
    link = Link(
        scheduler,
        "a",
        "b",
        capacity_bps=capacity_mbps * 1e6,
        delay_s=delay_ms / 1e3,
        rng=np.random.default_rng(5),
        **kwargs,
    )
    delivered = []
    link.connect(delivered.append)
    return link, delivered


def coded_dgram(rng, generation_id=0):
    header = NCHeader(
        session_id=1,
        generation_id=generation_id,
        coefficients=rng.integers(0, 256, 4, dtype=np.uint8),
    )
    packet = CodedPacket(header=header, payload=rng.integers(0, 256, 64, dtype=np.uint8))
    return Datagram(src="a", dst="b", payload=packet, payload_bytes=packet.size_bytes)


class TestCorruptCodedPacket:
    def test_copy_differs_but_original_untouched(self, rng):
        original = coded_dgram(rng).payload
        before_coeffs = original.coefficients.copy()
        before_payload = original.payload.copy()
        damaged = corrupt_coded_packet(original, rng)
        assert damaged != original
        assert np.array_equal(original.coefficients, before_coeffs)
        assert np.array_equal(original.payload, before_payload)

    def test_carries_pristine_seal_so_verify_fails(self, rng):
        original = coded_dgram(rng).payload
        damaged = corrupt_coded_packet(original, rng)
        assert original.verify()  # unsealed original stays trusted
        assert damaged.checksum == original.content_checksum()
        assert not damaged.verify()

    def test_byte_rate_always_corrupts_selected_packet(self, rng):
        # Even a tiny byte rate must flip at least one byte.
        original = coded_dgram(rng).payload
        for _ in range(20):
            damaged = corrupt_coded_packet(original, rng, byte_rate=1e-9)
            assert not damaged.verify()

    def test_high_byte_rate_damages_many_bytes(self, rng):
        original = coded_dgram(rng).payload
        damaged = corrupt_coded_packet(original, rng, byte_rate=0.5)
        diff = np.count_nonzero(damaged.payload != original.payload) + np.count_nonzero(
            damaged.coefficients != original.coefficients
        )
        assert diff > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            BitFlipCorruption(1.5)
        with pytest.raises(ValueError):
            BitFlipCorruption(0.5, byte_rate=0.0)
        with pytest.raises(ValueError):
            Duplication(-0.1)


class TestLinkCorruption:
    def test_all_packets_corrupted_at_rate_one(self, scheduler, rng):
        link, delivered = make_link(scheduler)
        link.add_impairment(BitFlipCorruption(1.0))
        sent = [coded_dgram(rng, generation_id=i) for i in range(8)]
        for d in sent:
            link.send(d)
        scheduler.run()
        assert len(delivered) == 8
        assert link.stats.corrupted_packets == 8
        for before, after in zip(sent, delivered):
            assert not after.payload.verify()
            assert after.payload is not before.payload  # damaged copies
            assert before.payload.verify()

    def test_non_coded_payload_is_dropped(self, scheduler):
        # A corrupted ACK/probe datagram fails the kernel UDP checksum.
        link, delivered = make_link(scheduler)
        link.add_impairment(BitFlipCorruption(1.0))
        link.send(Datagram(src="a", dst="b", payload=("cum_ack", 1, 5), payload_bytes=64))
        scheduler.run()
        assert delivered == []
        assert link.stats.dropped_corrupt == 1

    def test_zero_rate_is_transparent(self, scheduler, rng):
        link, delivered = make_link(scheduler)
        link.add_impairment(BitFlipCorruption(0.0))
        link.send(coded_dgram(rng))
        scheduler.run()
        assert len(delivered) == 1
        assert delivered[0].payload.verify()
        assert link.stats.corrupted_packets == 0


class TestDuplication:
    def test_duplicates_delivered_with_fresh_ids(self, scheduler, rng):
        link, delivered = make_link(scheduler)
        link.add_impairment(Duplication(1.0))
        d = coded_dgram(rng)
        link.send(d)
        scheduler.run()
        assert len(delivered) == 2
        assert delivered[0].payload is delivered[1].payload  # same coded packet
        assert delivered[0] is not delivered[1]  # two datagrams on the wire
        assert link.stats.duplicated_packets == 1
        assert link.stats.delivered_packets == 2

    def test_composes_with_corruption(self, scheduler, rng):
        # Attachment order: duplicate first, then corrupt each copy
        # independently — both copies arrive damaged.
        link, delivered = make_link(scheduler)
        link.add_impairment(Duplication(1.0))
        link.add_impairment(BitFlipCorruption(1.0))
        link.send(coded_dgram(rng))
        scheduler.run()
        assert len(delivered) == 2
        assert all(not d.payload.verify() for d in delivered)
        assert link.stats.corrupted_packets == 2


class TestBlackhole:
    def test_swallows_everything_silently(self, scheduler, rng):
        link, delivered = make_link(scheduler)
        link.add_impairment(Blackhole())
        for i in range(5):
            link.send(coded_dgram(rng, generation_id=i))
        scheduler.run()
        assert delivered == []
        assert link.stats.dropped_blackhole == 5
        assert link.stats.sent_packets == 5  # the sender saw nothing wrong

    def test_clear_impairments_restores_the_wire(self, scheduler, rng):
        link, delivered = make_link(scheduler)
        link.add_impairment(Blackhole())
        link.send(coded_dgram(rng))
        scheduler.run()  # the wire eats it in flight
        link.clear_impairments()
        link.send(coded_dgram(rng, generation_id=1))
        scheduler.run()
        assert len(delivered) == 1
        assert delivered[0].payload.generation_id == 1


class TestDeterminism:
    def test_cleared_impairments_restore_zero_draw_path(self, scheduler):
        # An empty impairments list consumes no extra RNG draws: a link
        # that had an impairment attached and cleared produces the exact
        # jittered arrival sequence of one that never had any — which is
        # what keeps committed chaos fingerprints replay-identical.
        from repro.net.events import EventScheduler

        def run(touch_impairments):
            sched = EventScheduler()
            link = Link(sched, "a", "b", 8e6, 0.01, rng=np.random.default_rng(7), jitter_s=0.002)
            if touch_impairments:
                link.add_impairment(Duplication(1.0))
                link.clear_impairments()
            arrivals = []
            link.connect(lambda d: arrivals.append((d.payload, sched.now)))
            for i in range(20):
                link.send(Datagram(src="a", dst="b", payload=i, payload_bytes=972))
            sched.run()
            return arrivals

        assert run(False) == run(True)


class TestLinkResetRegression:
    def test_burst_loss_state_resets_on_reconnect(self, scheduler):
        # Regression: up() never called loss.reset(), so BurstLoss's
        # previous-packet correlation memory leaked across a flap.
        loss = BurstLoss(p=0.5, correlation=0.9)
        link, _ = make_link(scheduler, loss=loss)
        loss._prev_dropped = True
        link.down()
        link.up()
        assert loss._prev_dropped is False

    def test_up_on_an_up_link_keeps_correlation_state(self, scheduler):
        loss = BurstLoss(p=0.5, correlation=0.9)
        link, _ = make_link(scheduler, loss=loss)
        loss._prev_dropped = True
        link.up()  # no flap happened: not a reconnect
        assert loss._prev_dropped is True

    def test_impairment_reset_called_on_reconnect(self, scheduler):
        class Recorder(Blackhole):
            resets = 0

            def reset(self):
                self.resets += 1

        recorder = Recorder()
        link, _ = make_link(scheduler)
        link.add_impairment(recorder)
        link.down()
        link.up()
        assert recorder.resets == 1
