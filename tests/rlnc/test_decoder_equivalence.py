"""Fused-row :class:`Decoder` against an independent linear-algebra oracle.

The decoder folds packets in one at a time on fused
``[coefficients | payload]`` rows with table kernels and a scalar
inverse table.  The oracle below shares none of that: it keeps the
coefficient rows it accepted, decides innovation with
:func:`repro.gf.gf_rref` (a new pivot column or not), reads the missing
pivots off the same reduction, and solves the finished system with
:func:`gf_inverse` and :meth:`GaloisField.matmul`.  Packets arrive in
arbitrary order with linearly dependent rows mixed in (repeats, XOR
sums of earlier rows, the zero row), over GF(2^4) and GF(2^8).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF16, GF256, gf_inverse, gf_rref
from repro.rlnc import CodedPacket, Decoder
from repro.rlnc.header import NCHeader

SESSION, GENERATION = 3, 9


def make_stream(field, k, systematic, rng):
    """Coefficient rows, payload rows and an arrival order."""
    block_bytes = int(rng.integers(1, 9))
    dense = rng.integers(0, field.order, (k + 2, k), dtype=np.uint8)
    coeffs = np.vstack([np.eye(k, dtype=np.uint8), dense[:2]]) if systematic else dense
    blocks = rng.integers(0, field.order, (k, block_bytes), dtype=np.uint8)
    payloads = field.matmul(coeffs, blocks)
    # Dependent rows: a repeat, two XOR sums (field addition in every
    # GF(2^w), so they stay bytes) and the zero row.
    a, b, c = (int(i) for i in rng.integers(0, len(coeffs), 3))

    def with_dependents(rows):
        return np.vstack([rows, rows[a], rows[a] ^ rows[b], rows[b] ^ rows[c], np.zeros_like(rows[a])])

    coeffs, payloads = with_dependents(coeffs), with_dependents(payloads)
    return coeffs, payloads, rng.permutation(len(coeffs))


def check_stream(field, k, seed, systematic):
    coeffs, payloads, order = make_stream(field, k, systematic, np.random.default_rng(seed))
    decoder = Decoder(SESSION, GENERATION, k, payloads.shape[1], field=field)
    accepted: list[int] = []
    pivots: list[int] = []
    redundant = 0
    for received, index in enumerate(order, start=1):
        candidate_pivots = gf_rref(field, coeffs[accepted + [index]])[1]
        innovative = len(candidate_pivots) > len(accepted)
        packet = CodedPacket(NCHeader(SESSION, GENERATION, coeffs[index].copy()), payloads[index].copy())
        assert decoder.add(packet) is innovative
        if innovative:
            accepted.append(index)
            pivots = candidate_pivots
        else:
            redundant += 1
        assert decoder.rank == len(accepted)
        assert decoder.redundant == redundant
        assert decoder.received == received
        assert decoder.missing_pivots() == tuple(col for col in range(k) if col not in pivots)
        assert decoder.complete is (len(accepted) == k)
    if decoder.complete:
        solved = field.matmul(gf_inverse(field, coeffs[accepted]), payloads[accepted])
        assert np.array_equal(decoder.decode().blocks, solved)
    else:
        with pytest.raises(RuntimeError):
            decoder.decode()


@pytest.mark.parametrize(
    "field, k, examples",
    [(GF256, 1, 10), (GF256, 4, 20), (GF256, 32, 5), (GF16, 1, 10), (GF16, 4, 20), (GF16, 32, 5)],
    ids=repr,
)
def test_decoder_matches_linear_algebra_oracle(field, k, examples):
    @settings(max_examples=examples, deadline=None, database=None)
    @given(seed=st.integers(0, 2**31 - 1), systematic=st.booleans())
    def run(seed, systematic):
        check_stream(field, k, seed, systematic)

    run()
