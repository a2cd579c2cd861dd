"""Unit tests for GF(2^w) element arithmetic."""

import numpy as np
import pytest

from repro.gf import GF16, GF256, GaloisField


class TestConstruction:
    def test_supported_sizes(self):
        assert GF16.order == 16
        assert GF256.order == 256

    def test_unsupported_size_rejected(self):
        for w in (7, 16):
            with pytest.raises(ValueError):
                GaloisField(w)

    def test_dtype_matches_width(self):
        assert GF256.dtype == np.uint8
        assert GF16.dtype == np.uint8

    def test_equality_and_hash(self):
        assert GF256 == GaloisField(8)
        assert GF256 != GF16
        assert hash(GF256) == hash(GaloisField(8))


class TestAddition:
    def test_add_is_xor(self, rng):
        a = GF256.random_elements(rng, 50)
        b = GF256.random_elements(rng, 50)
        assert np.array_equal(GF256.add(a, b), a ^ b)

    def test_add_self_is_zero(self, rng):
        a = GF256.random_elements(rng, 50)
        assert np.all(GF256.add(a, a) == 0)

    def test_sub_equals_add(self, rng):
        a = GF256.random_elements(rng, 10)
        b = GF256.random_elements(rng, 10)
        assert np.array_equal(GF256.sub(a, b), GF256.add(a, b))


class TestMultiplication:
    def test_one_is_identity(self, rng):
        a = GF256.random_elements(rng, 100)
        assert np.array_equal(GF256.mul(a, 1), a)

    def test_zero_annihilates(self, rng):
        a = GF256.random_elements(rng, 100)
        assert np.all(GF256.mul(a, 0) == 0)
        assert np.all(GF256.mul(0, a) == 0)

    def test_commutative(self, rng):
        a = GF256.random_elements(rng, 100)
        b = GF256.random_elements(rng, 100)
        assert np.array_equal(GF256.mul(a, b), GF256.mul(b, a))

    def test_known_aes_products(self):
        # GF(2^8) with 0x11D: 2 * 128 = 0x11D ^ 0x100 = 0x1D... verify via
        # the definition: x * x^7 = x^8 = poly - x^8 = 0x1D.
        assert int(GF256.mul(2, 128)) == 0x1D

    def test_distributive(self, rng):
        a = GF256.random_elements(rng, 50)
        b = GF256.random_elements(rng, 50)
        c = GF256.random_elements(rng, 50)
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert np.array_equal(left, right)

    def test_associative(self, rng):
        a = GF256.random_elements(rng, 50)
        b = GF256.random_elements(rng, 50)
        c = GF256.random_elements(rng, 50)
        assert np.array_equal(GF256.mul(GF256.mul(a, b), c), GF256.mul(a, GF256.mul(b, c)))


class TestDivisionInverse:
    def test_inverse_property(self, rng):
        a = GF256.random_nonzero(rng, 200)
        assert np.all(GF256.mul(a, GF256.inv(a)) == 1)

    def test_every_nonzero_invertible(self):
        for field in (GF16, GF256):
            elements = np.arange(1, field.order, dtype=field.dtype)
            assert np.all(field.mul(elements, field.inv(elements)) == 1)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_div_roundtrip(self, rng):
        a = GF256.random_elements(rng, 100)
        b = GF256.random_nonzero(rng, 100)
        assert np.array_equal(GF256.mul(GF256.div(a, b), b), a)

    def test_scalar_inv_equals_inv_exhaustively_for_small_fields(self):
        for field in (GF16, GF256):
            elements = np.arange(1, field.order, dtype=field.dtype)
            table = [field.scalar_inv(a) for a in range(1, field.order)]
            assert all(type(value) is int for value in table)
            assert table == field.inv(elements).tolist()

    @pytest.mark.parametrize("field", [GF16, GF256], ids=repr)
    def test_scalar_inv_rejects_zero_and_out_of_range(self, field):
        with pytest.raises(ZeroDivisionError):
            field.scalar_inv(0)
        for bad in (-1, field.order):
            with pytest.raises(ValueError):
                field.scalar_inv(bad)


class TestPow:
    def test_pow_zero_is_one(self, rng):
        a = GF256.random_elements(rng, 10)
        assert np.all(GF256.pow(a, 0) == 1)

    def test_pow_matches_repeated_mul(self, rng):
        a = GF256.random_elements(rng, 20)
        acc = np.ones_like(a)
        for n in range(1, 6):
            acc = GF256.mul(acc, a)
            assert np.array_equal(GF256.pow(a, n), acc)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GF256.pow(3, -1)

    def test_fermat(self, rng):
        # a^(q-1) = 1 for nonzero a.
        a = GF256.random_nonzero(rng, 50)
        assert np.all(GF256.pow(a, 255) == 1)


class TestBulkKernels:
    def test_scale_matches_mul(self, rng):
        vec = GF256.random_elements(rng, 64)
        for coeff in [0, 1, 7, 255]:
            assert np.array_equal(GF256.scale(coeff, vec), GF256.mul(coeff, vec))

    def test_addmul(self, rng):
        acc = GF256.random_elements(rng, 64)
        vec = GF256.random_elements(rng, 64)
        out = GF256.addmul(acc, 3, vec)
        assert np.array_equal(out, GF256.add(acc, GF256.mul(3, vec)))

    def test_linear_combination_single_row(self, rng):
        block = GF256.random_elements(rng, 32)
        out = GF256.linear_combination(np.array([5], dtype=np.uint8), block[None, :])
        assert np.array_equal(out, GF256.mul(5, block))

    def test_linear_combination_is_linear(self, rng):
        blocks = GF256.random_elements(rng, (4, 32))
        c1 = GF256.random_elements(rng, 4)
        c2 = GF256.random_elements(rng, 4)
        lhs = GF256.linear_combination(GF256.add(c1, c2), blocks)
        rhs = GF256.add(GF256.linear_combination(c1, blocks), GF256.linear_combination(c2, blocks))
        assert np.array_equal(lhs, rhs)

    def test_linear_combination_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            GF256.linear_combination(np.zeros(3, dtype=np.uint8), GF256.random_elements(rng, (4, 8)))


class TestRandomness:
    def test_random_nonzero_never_zero(self, rng):
        assert np.all(GF16.random_nonzero(rng, 2000) != 0)

    def test_random_elements_cover_range(self, rng):
        vals = GF16.random_elements(rng, 5000)
        assert set(np.unique(vals)) == set(range(16))


FIELDS = [GF16, GF256]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
class TestRawWordDraws:
    """``random_elements`` reads field elements straight off
    ``bit_generator.random_raw`` words, a row to a word boundary."""

    @pytest.mark.parametrize("size", [1, 4, 6, 8, 9, 33, (3, 6), (5, 8), (2, 3, 5), (4,)])
    def test_dtype_shape_range_and_writability(self, field, size):
        vals = field.random_elements(np.random.default_rng(5), size)
        assert vals.dtype == field.dtype
        assert vals.shape == (size if isinstance(size, tuple) else (size,))
        assert int(vals.max()) <= field.order - 1
        vals[...] = 0  # callers patch all-zero rows in place

    @pytest.mark.parametrize("size", [0, (0, 4), (3, 0)])
    def test_empty_draws_take_no_words(self, field, size):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert field.random_elements(rng, size).size == 0
        assert rng.bit_generator.state == before

    def test_uniform_over_the_field(self, field):
        # Chi-square against uniform over 64 equal-width bins (whole
        # symbols for GF(2^4), which has only 16): 63 / 15 degrees of
        # freedom, 0.999 quantiles 103.4 / 37.7.  Fixed seed, so this is
        # a regression check on the lane arithmetic, not a flaky test.
        vals = field.random_elements(np.random.default_rng(2024), 1 << 16)
        bins = min(64, field.order)
        counts = np.bincount(vals.astype(np.int64) * bins // field.order, minlength=bins)
        expected = vals.size / bins
        chi2 = float(((counts - expected) ** 2).sum() / expected)
        assert counts.size == bins and counts.min() > 0
        assert chi2 < (103.4 if bins == 64 else 37.7)

    @pytest.mark.parametrize("n", [1, 4, 6, 8, 11])
    def test_rows_start_on_word_boundaries(self, field, n):
        batch_rng, row_rng = np.random.default_rng(77), np.random.default_rng(77)
        batch = field.random_elements(batch_rng, (5, n))
        rows = np.stack([field.random_elements(row_rng, n) for _ in range(5)])
        assert np.array_equal(batch, rows)
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state

    def test_rewinding_the_state_replays_the_draw(self, field):
        rng = np.random.default_rng(9)
        rng.integers(0, 7, dtype=np.uint32)  # leave PCG64's half-word buffer primed
        state = rng.bit_generator.state
        first = field.random_elements(rng, (3, 5))
        rng.bit_generator.state = state
        assert np.array_equal(field.random_elements(rng, (3, 5)), first)

    def test_interleaved_float_draws_stay_reproducible(self, field):
        # A link draws loss/jitter floats from the stream a codec reads
        # coefficients from only in tests and probes that share one
        # generator; the mix must still be a pure function of the seed.
        def mixed(seed):
            rng = np.random.default_rng(seed)
            return [
                (
                    field.random_elements(rng, 6).tolist(),
                    rng.random(),
                    field.random_elements(rng, (2, 3)).tolist(),
                )
                for _ in range(20)
            ]

        assert mixed(31) == mixed(31)
        assert mixed(31) != mixed(32)
