"""Encoder / Recoder / Decoder unit tests."""

import numpy as np
import pytest

from repro.gf import GF16
from repro.rlnc import Decoder, Encoder, Generation, Recoder
from repro.rlnc.encoder import encode_message
from repro.rlnc.generation import segment


def make_generation(rng, k=4, block_bytes=32, gen_id=0):
    blocks = rng.integers(0, 256, (k, block_bytes), dtype=np.uint8)
    return Generation(generation_id=gen_id, blocks=blocks)


class TestEncoder:
    def test_systematic_prefix(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        for i in range(4):
            packet = enc.next_packet()
            assert packet.header.systematic
            expected = np.zeros(4, dtype=np.uint8)
            expected[i] = 1
            assert np.array_equal(packet.coefficients, expected)
            assert np.array_equal(packet.payload, gen.blocks[i])

    def test_coded_after_systematic(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        for _ in range(4):
            enc.next_packet()
        coded = enc.next_packet()
        assert not coded.header.systematic

    def test_non_systematic_mode(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        packet = enc.next_packet()
        assert not packet.header.systematic

    def test_coded_payload_is_combination(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        packet = enc.next_packet()
        from repro.gf import GF256

        expected = GF256.linear_combination(packet.coefficients, gen.blocks)
        assert np.array_equal(packet.payload, expected)

    def test_packets_count(self, rng):
        enc = Encoder(1, make_generation(rng), rng=rng)
        assert len(list(enc.packets(6))) == 6
        with pytest.raises(ValueError):
            list(enc.packets(-1))

    def test_small_field(self, rng):
        gen = Generation(0, rng.integers(0, 16, (4, 8), dtype=np.uint8))
        enc = Encoder(1, gen, field=GF16, systematic=False, rng=rng)
        packet = enc.next_packet()
        assert packet.coefficients.max() < 16


class TestDecoder:
    def test_decodes_systematic(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        for _ in range(4):
            assert dec.add(enc.next_packet())
        assert dec.complete
        assert dec.decode() == gen

    def test_decodes_dense(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        while not dec.complete:
            dec.add(enc.next_packet())
        assert dec.decode() == gen
        # Dense coding over GF(2^8) rarely wastes packets.
        assert dec.received <= 6

    def test_redundant_packet_detected(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        p = enc.next_packet()
        assert dec.add(p)
        assert not dec.add(p)  # same packet again: dependent
        assert dec.redundant == 1

    def test_incomplete_decode_raises(self, rng):
        dec = Decoder(1, 0, 4, 32)
        with pytest.raises(RuntimeError):
            dec.decode()

    def test_rank_monotone(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        last = 0
        for _ in range(8):
            dec.add(enc.next_packet())
            assert dec.rank >= last
            last = dec.rank
        assert dec.complete

    def test_wrong_session_rejected(self, rng):
        gen = make_generation(rng)
        enc = Encoder(2, gen, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        with pytest.raises(ValueError):
            dec.add(enc.next_packet())

    def test_wrong_block_size_rejected(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        dec = Decoder(1, 0, 4, 16)
        with pytest.raises(ValueError):
            dec.add(enc.next_packet())

    def test_missing_pivots(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        dec.add(enc.next_packet())  # systematic block 0
        assert dec.missing_pivots() == (1, 2, 3)


class TestRecoder:
    def test_first_packet_forwarded_verbatim(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, rng=rng)
        rec = Recoder(1, 0, 4, rng=rng)
        p = enc.next_packet()
        assert rec.on_packet(p) is p

    def test_recoded_packets_decode(self, rng):
        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        rec = Recoder(1, 0, 4, rng=rng)
        dec = Decoder(1, 0, 4, 32)
        for _ in range(10):
            out = rec.on_packet(enc.next_packet())
            dec.add(out)
            if dec.complete:
                break
        assert dec.complete
        assert dec.decode() == gen

    def test_recode_before_any_packet_raises(self, rng):
        rec = Recoder(1, 0, 4, rng=rng)
        with pytest.raises(RuntimeError):
            rec.recode()

    def test_effective_coefficients_consistent(self, rng):
        # The recoded packet's payload must equal its claimed coefficient
        # combination of the ORIGINAL blocks.
        from repro.gf import GF256

        gen = make_generation(rng)
        enc = Encoder(1, gen, systematic=False, rng=rng)
        rec = Recoder(1, 0, 4, rng=rng)
        for _ in range(3):
            rec.add(enc.next_packet())
        out = rec.recode()
        expected = GF256.linear_combination(out.coefficients, gen.blocks)
        assert np.array_equal(out.payload, expected)

    def test_wrong_generation_rejected(self, rng):
        gen = make_generation(rng, gen_id=5)
        enc = Encoder(1, gen, rng=rng)
        rec = Recoder(1, 0, 4, rng=rng)
        with pytest.raises(ValueError):
            rec.add(enc.next_packet())


class TestEncodeMessage:
    def test_whole_message_roundtrip(self, rng):
        data = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        gens = segment(data, block_bytes=100, blocks_per_generation=4)
        packets = encode_message(3, gens, packets_per_generation=5, rng=rng)
        assert len(packets) == 5 * len(gens)
        decoders = {}
        for p in packets:
            dec = decoders.setdefault(p.generation_id, Decoder(3, p.generation_id, 4, 100))
            if not dec.complete:
                dec.add(p)
        assert all(d.complete for d in decoders.values())
