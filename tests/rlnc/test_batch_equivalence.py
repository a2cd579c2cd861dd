"""Batch fast path == packet-at-a-time path, bit for bit.

The data-plane fast path draws a burst's coefficient vectors in one RNG
call and codes payloads through one batch matmul.  numpy's bounded-
integer sampling consumes the generator stream element-by-element, so a
batched draw and sequential draws read the same bits — these tests pin
that down: same seed, same packets, byte for byte, for the encoder, the
recoder, and the wire round-trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF16, GF256
from repro.rlnc import Encoder, Generation, Recoder

seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def make_generation(seed, field, k, block_bytes, gen_id=0):
    rng = np.random.default_rng(seed)
    blocks = field.random_elements(rng, (k, block_bytes)).astype(np.uint8)
    return Generation(generation_id=gen_id, blocks=blocks)


def packets_equal(batch, sequential):
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        assert got == want, f"batch packet differs: {got!r} != {want!r}"
        assert got.encode() == want.encode()


class TestEncoderBatch:
    @given(
        seed=seed_st,
        field=st.sampled_from(["GF16", "GF256"]),
        k=st.integers(min_value=1, max_value=6),
        count=st.integers(min_value=0, max_value=12),
        systematic=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_next_packets_matches_sequential(self, seed, field, k, count, systematic):
        field = GF16 if field == "GF16" else GF256
        gen = make_generation(seed, field, k, 24)
        batch_enc = Encoder(
            7, gen, field=field, systematic=systematic, rng=np.random.default_rng(seed)
        )
        seq_enc = Encoder(
            7, gen, field=field, systematic=systematic, rng=np.random.default_rng(seed)
        )
        packets_equal(batch_enc.next_packets(count), [seq_enc.next_packet() for _ in range(count)])

    @given(seed=seed_st, count=st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_coded_packets_matches_sequential(self, seed, count):
        gen = make_generation(seed, GF256, 4, 64)
        batch_enc = Encoder(1, gen, systematic=False, rng=np.random.default_rng(seed))
        seq_enc = Encoder(1, gen, systematic=False, rng=np.random.default_rng(seed))
        packets_equal(batch_enc.coded_packets(count), [seq_enc.next_packet() for _ in range(count)])

    @given(seed=seed_st)
    @settings(max_examples=20, deadline=None)
    def test_split_bursts_match_one_burst(self, seed):
        """Batching boundaries don't matter: 3+4 packets == 7 packets."""
        gen = make_generation(seed, GF256, 4, 32)
        split_enc = Encoder(1, gen, rng=np.random.default_rng(seed))
        whole_enc = Encoder(1, gen, rng=np.random.default_rng(seed))
        split = split_enc.next_packets(3) + split_enc.next_packets(4)
        packets_equal(whole_enc.next_packets(7), split)


class TestRecoderBatch:
    @given(
        seed=seed_st,
        buffered=st.integers(min_value=1, max_value=6),
        count=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_recode_batch_matches_sequential(self, seed, buffered, count):
        gen = make_generation(seed, GF256, 4, 48)
        feed = Encoder(3, gen, systematic=False, rng=np.random.default_rng(seed)).coded_packets(buffered)
        batch_rec = Recoder(3, 0, 4, rng=np.random.default_rng(seed + 1))
        seq_rec = Recoder(3, 0, 4, rng=np.random.default_rng(seed + 1))
        for packet in feed:
            batch_rec.add(packet)
            seq_rec.add(packet)
        packets_equal(batch_rec.recode_batch(count), [seq_rec.recode() for _ in range(count)])

    @given(
        seed=seed_st,
        field=st.sampled_from(["GF16", "GF256"]),
        hops=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_fanout_batch_matches_one_recode_per_hop(self, seed, field, hops):
        """A relay's per-arrival fan-out: after every ``add``, one
        ``recode_batch(hops)`` equals ``hops`` single-row ``recode()``
        calls, packet for packet and draw for draw — over GF(2^4) too,
        where an all-zero weight row (and the batch's rewind) is common
        while few rows are buffered."""
        field = GF16 if field == "GF16" else GF256
        gen = make_generation(seed, field, 4, 24)
        feed = Encoder(3, gen, field=field, rng=np.random.default_rng(seed)).next_packets(7)
        batch_rec = Recoder(3, 0, 4, field=field, rng=np.random.default_rng(seed + 1))
        seq_rec = Recoder(3, 0, 4, field=field, rng=np.random.default_rng(seed + 1))
        for packet in feed:
            assert batch_rec.add(packet) == seq_rec.add(packet)
            packets_equal(batch_rec.recode_batch(hops), [seq_rec.recode() for _ in range(hops)])
        assert batch_rec._rng.bit_generator.state == seq_rec._rng.bit_generator.state

    @given(seed=seed_st)
    @settings(max_examples=20, deadline=None)
    def test_recoded_effective_coefficients_are_consistent(self, seed):
        """A batch-recoded payload is the claimed combination of the originals."""
        gen = make_generation(seed, GF256, 4, 48)
        feed = Encoder(3, gen, systematic=False, rng=np.random.default_rng(seed)).coded_packets(5)
        rec = Recoder(3, 0, 4, rng=np.random.default_rng(seed + 1))
        for packet in feed:
            rec.add(packet)
        for out in rec.recode_batch(4):
            expected = GF256.linear_combination(out.coefficients, gen.blocks)
            assert np.array_equal(out.payload, expected)
