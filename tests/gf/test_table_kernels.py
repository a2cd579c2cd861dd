"""Property tests: the table-driven batch kernels equal the log/exp oracle.

``GaloisField.mul`` (log/antilog) is the property-tested reference
implementation; the full-table gather kernels added for the data-plane
fast path (``MUL``, ``mul_table``, ``matmul``, ``row_product``,
``scale_into``, ``addmul_into``) must be bit-identical to it.  Scalar coverage is
exhaustive (all 256x256 pairs for GF(2^8), all 16x16 for GF(2^4));
matrix shapes and contents are driven by Hypothesis across both
supported fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF16, GF256

FIELDS = {"GF16": GF16, "GF256": GF256}

seed_st = st.integers(min_value=0, max_value=2**31 - 1)
field_st = st.sampled_from(sorted(FIELDS))
dims = st.integers(min_value=1, max_value=7)


def random_matrix(field, rng, shape):
    return field.random_elements(rng, shape)


def oracle_matmul(field, coeffs, blocks):
    """Row-by-row linear_combination — the pre-existing reference path."""
    out = np.zeros((coeffs.shape[0], blocks.shape[1]), dtype=field.dtype)
    for i in range(coeffs.shape[0]):
        out[i] = field.linear_combination(coeffs[i], blocks)
    return out


class TestFullTableScalars:
    """Exhaustive scalar agreement between MUL and the log/exp oracle."""

    @pytest.mark.parametrize("name", ["GF16", "GF256"])
    def test_mul_table_exhaustive(self, name):
        field = FIELDS[name]
        a = np.arange(field.order, dtype=field.dtype)
        expected = field.mul(a[:, None], a[None, :])
        assert np.array_equal(field.MUL, expected)

    @pytest.mark.parametrize("name", ["GF16", "GF256"])
    def test_mul_row_matches_oracle(self, name):
        field = FIELDS[name]
        elements = np.arange(field.order, dtype=field.dtype)
        for c in range(field.order):
            assert np.array_equal(field.mul_row(int(c)), field.mul(field.dtype(c), elements))


class TestMatrixKernels:
    @given(name=field_st, seed=seed_st, m=dims, k=dims, n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_oracle(self, name, seed, m, k, n):
        field = FIELDS[name]
        rng = np.random.default_rng(seed)
        coeffs = random_matrix(field, rng, (m, k))
        blocks = random_matrix(field, rng, (k, n))
        assert np.array_equal(field.matmul(coeffs, blocks), oracle_matmul(field, coeffs, blocks))

    @given(name=field_st, seed=seed_st, k=dims, n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_mul_table_rows_match_oracle(self, name, seed, k, n):
        field = FIELDS[name]
        rng = np.random.default_rng(seed)
        coeffs = random_matrix(field, rng, k)
        matrix = random_matrix(field, rng, (k, n))
        expected = np.stack([field.mul(field.dtype(coeffs[i]), matrix[i]) for i in range(k)])
        assert np.array_equal(field.mul_table(coeffs, matrix), expected)

    @given(name=field_st, seed=seed_st, n=st.integers(min_value=1, max_value=64), c=st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_scale_into_matches_oracle(self, name, seed, n, c):
        field = FIELDS[name]
        rng = np.random.default_rng(seed)
        c = c % field.order
        vec = random_matrix(field, rng, n)
        out = np.empty(n, dtype=field.dtype)
        field.scale_into(c, vec, out)
        assert np.array_equal(out, field.scale(c, vec))

    @given(
        name=field_st,
        seed=seed_st,
        n=st.integers(min_value=1, max_value=64),
        c=st.integers(min_value=0),
        scratch=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_addmul_into_matches_oracle(self, name, seed, n, c, scratch):
        field = FIELDS[name]
        rng = np.random.default_rng(seed)
        c = c % field.order
        acc = random_matrix(field, rng, n)
        vec = random_matrix(field, rng, n)
        expected = field.addmul(acc, c, vec)
        buf = np.empty(n, dtype=field.dtype) if scratch else None
        field.addmul_into(acc, c, vec, scratch=buf)
        assert np.array_equal(acc, expected)

    @given(name=field_st, seed=seed_st, m=dims, n=dims)
    @settings(max_examples=30, deadline=None)
    def test_matmul_zero_k(self, name, seed, m, n):
        field = FIELDS[name]
        coeffs = np.zeros((m, 0), dtype=field.dtype)
        blocks = np.zeros((0, n), dtype=field.dtype)
        assert np.array_equal(field.matmul(coeffs, blocks), np.zeros((m, n), dtype=field.dtype))

    @given(name=field_st, seed=seed_st, k=dims, n=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_row_product_matches_oracle(self, name, seed, k, n):
        """The relay's single-row product, n = 1 and empty payloads included."""
        field = FIELDS[name]
        rng = np.random.default_rng(seed)
        weights = random_matrix(field, rng, k)
        rows = random_matrix(field, rng, (k, n))
        mixed = field.row_product(weights, rows)
        assert mixed.dtype == field.dtype and mixed.shape == (n,)
        assert np.array_equal(mixed, field.linear_combination(weights, rows))
        assert np.array_equal(mixed, field.matmul(weights[None, :], rows)[0])

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_row_product_edge_rows(self, name):
        field = FIELDS[name]
        rows = random_matrix(field, np.random.default_rng(3), (5, 12))
        top = field.order - 1
        for weights in ([0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [top, top, top, top, top]):
            weights = np.asarray(weights, dtype=field.dtype)
            assert np.array_equal(field.row_product(weights, rows), field.linear_combination(weights, rows))
        none = np.zeros(0, dtype=field.dtype)
        assert np.array_equal(field.row_product(none, rows[:0]), np.zeros(12, dtype=field.dtype))
        with pytest.raises(ValueError):
            field.row_product(np.zeros(4, dtype=field.dtype), rows)
        with pytest.raises(ValueError):
            field.row_product(np.zeros((1, 5), dtype=field.dtype), rows)

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GF256.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            GF256.mul_table(np.zeros(3, dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

    def test_matmul_chunked_path(self):
        """Force the chunked gather (step < m) and compare to the oracle."""
        field = GF256
        old = field._MATMUL_CHUNK_ELEMS
        rng = np.random.default_rng(7)
        coeffs = random_matrix(field, rng, (9, 4))
        blocks = random_matrix(field, rng, (4, 32))
        try:
            type(field)._MATMUL_CHUNK_ELEMS = 4 * 32 * 2  # two rows per chunk
            chunked = field.matmul(coeffs, blocks)
        finally:
            type(field)._MATMUL_CHUNK_ELEMS = old
        assert np.array_equal(chunked, oracle_matmul(field, coeffs, blocks))
