"""``Recoder.add`` is the relay's duplicate verdict.

The recoder's fused rows are the only stored copy of a relay's packets,
so the verdict that used to come from scanning a bucket of
``CodedPacket`` objects now comes from a digest lookup confirmed by a
row compare.  It must equal that scan — ``CodedPacket.__eq__`` against
every packet accepted so far — on every arrival, including when two
different rows share a digest.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlnc import CodedPacket, Encoder, Generation, MalformedPacketError, NCHeader, Recoder
from repro.rlnc import recoder as recoder_module

seed_st = st.integers(min_value=0, max_value=2**31 - 1)


def hostile_stream(seed, k, block_bytes, length):
    """Fresh packets interleaved with copies and near-copies of earlier ones."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 256, (k, block_bytes), dtype=np.uint8)
    encoder = Encoder(5, Generation(0, blocks), rng=rng)
    stream = [encoder.next_packet()]
    while len(stream) < length:
        earlier = stream[int(rng.integers(len(stream)))]
        header = earlier.header
        kind = int(rng.integers(5))
        if kind == 0:  # exact duplicate: same object, as Duplication delivers it
            stream.append(earlier)
        elif kind == 1:  # exact duplicate: an equal copy, as the byte codec delivers it
            stream.append(CodedPacket.decode(earlier.encode()))
        elif kind == 2:  # same coefficients, different payload
            payload = earlier.payload.copy()
            payload[int(rng.integers(block_bytes))] ^= 1
            stream.append(CodedPacket(header, payload))
        elif kind == 3:  # same row, other systematic flag
            flipped = NCHeader(5, 0, header.coefficients, not header.systematic)
            stream.append(CodedPacket(flipped, earlier.payload))
        else:
            stream.append(encoder.next_packet())
    return stream


@given(
    seed=seed_st,
    k=st.integers(min_value=1, max_value=16),
    block_bytes=st.integers(min_value=1, max_value=48),
    collide=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_every_verdict_equals_the_packet_equality_scan(seed, k, block_bytes, collide):
    recoder = Recoder(5, 0, k, rng=np.random.default_rng(seed))
    digest = (lambda row: 7) if collide else recoder_module._row_digest
    accepted = []
    with mock.patch.object(recoder_module, "_row_digest", digest):
        for packet in hostile_stream(seed, k, block_bytes, 40):
            fresh = packet not in accepted  # CodedPacket.__eq__, one by one
            assert recoder.add(packet) is fresh
            if fresh:
                accepted.append(packet)
            assert recoder.buffered == len(accepted)
    # What was stored is exactly the accepted packets, in order (growth
    # of the row matrix and rejected candidates in the spare slot included).
    stored = recoder._rows[: recoder.buffered]
    assert np.array_equal(stored[:, :k], np.stack([p.coefficients for p in accepted]))
    assert np.array_equal(stored[:, k:], np.stack([p.payload for p in accepted]))


def test_a_duplicate_is_not_mixed_into_later_recodes():
    rng = np.random.default_rng(11)
    blocks = rng.integers(0, 256, (4, 16), dtype=np.uint8)
    packets = Encoder(5, Generation(0, blocks), rng=rng).next_packets(3)
    once = Recoder(5, 0, 4, rng=np.random.default_rng(2))
    twice = Recoder(5, 0, 4, rng=np.random.default_rng(2))
    for packet in packets:
        assert once.add(packet) and twice.add(packet)
        assert not twice.add(packet)
    assert once.recode() == twice.recode()


def test_misshaped_packets_are_typed_and_leave_the_store_untouched():
    rng = np.random.default_rng(4)
    blocks = rng.integers(0, 256, (4, 16), dtype=np.uint8)
    first, second = Encoder(5, Generation(0, blocks), rng=rng).next_packets(2)
    recoder = Recoder(5, 0, 4, rng=rng)
    assert recoder.add(first)
    with pytest.raises(MalformedPacketError):
        recoder.add(CodedPacket(NCHeader(5, 0, second.coefficients[:3]), second.payload))
    with pytest.raises(MalformedPacketError):
        recoder.add(CodedPacket(second.header, second.payload[:9]))
    with pytest.raises(ValueError) as wrong_generation:
        recoder.add(CodedPacket(NCHeader(5, 1, second.coefficients), second.payload))
    assert not isinstance(wrong_generation.value, MalformedPacketError)
    assert recoder.buffered == 1
    assert recoder.add(second) and not recoder.add(second)
