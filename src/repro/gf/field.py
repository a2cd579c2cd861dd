"""Vectorized GF(2^w) arithmetic via log/antilog tables.

A GF(2^w) element is a polynomial over GF(2) modulo a primitive
polynomial.  Addition is XOR.  Multiplication uses discrete logarithms:
every nonzero element is a power of a primitive element g, so
``a * b = g^(log a + log b)``.  We precompute ``log`` and ``exp`` tables
once per field and then multiply whole numpy arrays with two gathers,
one add and one gather — this is what makes RLNC coding fast enough in
Python (the repro-band note: "GF coding slow in pure Python; needs numpy
tricks").

Two tiers of kernels live here:

- the log/exp implementations (:meth:`GaloisField.mul`,
  :meth:`GaloisField.scale`, :meth:`GaloisField.linear_combination`, …)
  are the *reference oracle*: simple, zero-masked, property-tested, and
  deliberately left untouched so the fast tier has something to be
  bit-compared against;
- the table-driven batch kernels (:meth:`GaloisField.mul_table`,
  :meth:`GaloisField.matmul`, :meth:`GaloisField.row_product`,
  :meth:`GaloisField.scale_into`, :meth:`GaloisField.addmul_into`) run
  off a lazily-built full multiplication table (a 256×256 byte array
  for GF(2^8)) and are what the RLNC hot path actually calls.  One
  :meth:`~GaloisField.matmul` call codes a whole redundancy burst with a
  single fancy gather plus one ``bitwise_xor.reduce`` — no per-row
  temporaries, no zero masks.
"""

from __future__ import annotations

import math
from typing import Any, Union

import numpy as np
import numpy.typing as npt

#: An array of GF(2^w) elements (uint8: one byte per element, the NC
#: header's coefficient width).
FieldArray = npt.NDArray[Any]

#: Anything accepted as field-element input: scalars, sequences, arrays.
FieldLike = npt.ArrayLike

#: A single coefficient: a Python int or a numpy integer scalar.
Coefficient = Union[int, np.integer[Any]]

# Primitive polynomials (with the leading x^w term included), the standard
# choices used by Rijndael/Kodo-style libraries.
_PRIMITIVE_POLY = {
    4: 0x13,      # x^4 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
}


class GaloisField:
    """Arithmetic over GF(2^w), vectorized over numpy arrays.

    Parameters
    ----------
    w:
        Field exponent; 4 or 8.  The field has ``2**w``
        elements represented as Python ints / numpy integers in
        ``[0, 2**w)``.

    All binary operations accept scalars or numpy arrays (broadcasting
    like numpy) and return numpy arrays of the field's dtype.
    """

    def __init__(self, w: int) -> None:
        if w not in _PRIMITIVE_POLY:
            raise ValueError(f"unsupported field exponent w={w}; choose from {sorted(_PRIMITIVE_POLY)}")
        self.w = w
        self.order = 1 << w
        self.poly = _PRIMITIVE_POLY[w]
        self.dtype = np.uint8
        self._lanes = 8  # random_elements(): elements per raw 64-bit word
        self._lane_shift = 8 - w  # a lane wider than the field keeps its top w bits
        self._mul_full: FieldArray | None = None
        self._inv_ints: list[int] | None = None
        self._build_tables()

    def _build_tables(self) -> None:
        order = self.order
        # exp table is doubled so that exp[log a + log b] never needs a
        # modular reduction of the index.
        exp = np.zeros(2 * order, dtype=self.dtype)
        log = np.zeros(order, dtype=np.int32)
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= self.poly
        exp[order - 1 : 2 * (order - 1)] = exp[: order - 1]
        self._exp = exp
        self._log = log
        # log[0] is undefined; keep it 0 but mask zeros explicitly in mul.

    # -- element ops -------------------------------------------------

    def add(self, a: FieldLike, b: FieldLike) -> FieldArray:
        """Field addition (= subtraction): bitwise XOR."""
        return np.bitwise_xor(np.asarray(a, dtype=self.dtype), np.asarray(b, dtype=self.dtype))

    # In characteristic 2 subtraction is addition.
    sub = add

    def mul(self, a: FieldLike, b: FieldLike) -> FieldArray:
        """Element-wise field multiplication via log/exp tables."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        out = self._exp[self._log[a] + self._log[b]]
        zero = (a == 0) | (b == 0)
        return np.where(zero, self.dtype(0), out)

    def div(self, a: FieldLike, b: FieldLike) -> FieldArray:
        """Element-wise field division ``a / b``; raises on division by zero."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(2^w)")
        out = self._exp[self._log[a] - self._log[b] + (self.order - 1)]
        return np.where(a == 0, self.dtype(0), out)

    def inv(self, a: FieldLike) -> FieldArray:
        """Multiplicative inverse; raises on zero."""
        a = np.asarray(a, dtype=self.dtype)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        return self._exp[(self.order - 1) - self._log[a]]

    def scalar_inv(self, a: int) -> int:
        """Multiplicative inverse of one element, Python int in and out.

        The decoder normalizes one pivot per innovative packet; going
        through :meth:`inv` costs an array round-trip per scalar.  The
        table is built from :meth:`inv` on first use (``2**w`` ints).
        """
        table = self._inv_ints
        if table is None:
            nonzero = np.arange(1, self.order, dtype=self.dtype)
            table = self._inv_ints = [0, *self.inv(nonzero).tolist()]
        if 0 < a < self.order:
            return table[a]
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        raise ValueError(f"element {a} out of range for GF(2^{self.w})")

    def pow(self, a: FieldLike, n: int) -> FieldArray:
        """Raise field element(s) to an integer power ``n >= 0``."""
        a = np.asarray(a, dtype=self.dtype)
        if n < 0:
            raise ValueError("negative exponents not supported; invert first")
        if n == 0:
            return np.ones_like(a)
        loga = self._log[a] * (n % (self.order - 1))
        out = self._exp[loga % (self.order - 1)]
        return np.where(a == 0, self.dtype(0), out)

    # -- bulk coding kernels -----------------------------------------

    def scale(self, coeff: Coefficient, vec: FieldLike) -> FieldArray:
        """Multiply a whole vector/matrix by a scalar coefficient."""
        coeff = self.dtype(coeff)
        vec = np.asarray(vec, dtype=self.dtype)
        if coeff == 0:
            return np.zeros_like(vec)
        shift = int(self._log[coeff])
        out = np.zeros_like(vec)
        nz = vec != 0
        out[nz] = self._exp[self._log[vec[nz]] + shift]
        return out

    def addmul(self, acc: FieldLike, coeff: Coefficient, vec: FieldLike) -> FieldArray:
        """Return ``acc + coeff * vec`` — the inner loop of RLNC coding.

        ``acc`` is not modified in place; callers accumulate with
        ``acc = field.addmul(acc, c, block)``.
        """
        return self.add(acc, self.scale(coeff, vec))

    def linear_combination(self, coeffs: FieldLike, blocks: FieldLike) -> FieldArray:
        """Combine rows of ``blocks`` with ``coeffs``: returns ``coeffs @ blocks``.

        ``coeffs`` has shape (k,), ``blocks`` shape (k, n); the result has
        shape (n,).  This is the single hottest operation in the system —
        producing one coded packet from a generation of k blocks.
        """
        coeffs = np.asarray(coeffs, dtype=self.dtype)
        blocks = np.asarray(blocks, dtype=self.dtype)
        if coeffs.shape[0] != blocks.shape[0]:
            raise ValueError(f"coefficient count {coeffs.shape[0]} != block count {blocks.shape[0]}")
        acc = np.zeros(blocks.shape[1], dtype=self.dtype)
        for c, row in zip(coeffs, blocks):
            if c == 0:
                continue
            if c == 1:
                acc = np.bitwise_xor(acc, row)
                continue
            acc = self.addmul(acc, c, row)
        return acc

    # -- table-driven fast kernels ------------------------------------
    #
    # Everything below is the data-plane fast path.  The log/exp methods
    # above stay as the reference oracle; tests/gf/test_table_kernels.py
    # proves these produce bit-identical results over exhaustive scalar
    # pairs and random matrices.

    #: Chunk budget (elements) for the (m, k, n) gather in matmul, so a
    #: huge burst never materializes an unbounded temporary.
    _MATMUL_CHUNK_ELEMS = 1 << 26

    @property
    def MUL(self) -> FieldArray:
        """The full multiplication table: ``MUL[a, b] == a * b``.

        Built lazily from the log/exp oracle on first use and cached on
        the field (64 KiB for GF(2^8), 256 B for GF(2^4)).
        """
        table = self._mul_full
        if table is None:
            a = np.arange(self.order, dtype=self.dtype)
            table = self.mul(a[:, None], a[None, :])
            self._mul_full = table
        return table

    def mul_row(self, coeff: Coefficient) -> FieldArray:
        """One row of the multiplication table (a view): ``row[b] == coeff * b``."""
        c = int(coeff)
        if not 0 <= c < self.order:
            raise ValueError(f"coefficient {c} out of range for GF(2^{self.w})")
        return self.MUL[c]

    def mul_table(self, coeff_row: FieldLike, matrix: FieldLike) -> FieldArray:
        """Row-wise scaling: ``out[i] = coeff_row[i] * matrix[i]``.

        ``coeff_row`` has shape (k,), ``matrix`` (k, n).  A *single*
        fancy gather into the full MUL table — no zero masks, no per-row
        temporaries.
        """
        coeffs = np.asarray(coeff_row, dtype=self.dtype)
        matrix = np.asarray(matrix, dtype=self.dtype)
        if coeffs.ndim != 1 or matrix.ndim != 2 or coeffs.shape[0] != matrix.shape[0]:
            raise ValueError(f"shape mismatch: coeffs {coeffs.shape} vs matrix {matrix.shape}")
        result: FieldArray = self.MUL[coeffs[:, None], matrix]
        return result

    def matmul(self, coeff_matrix: FieldLike, blocks: FieldLike) -> FieldArray:
        """Batch matrix product ``C @ B`` over the field.

        ``coeff_matrix`` has shape (m, k) — one coefficient vector per
        output packet — and ``blocks`` shape (k, n).  One call codes a
        whole redundancy burst: the products come from a single gather
        into the MUL table and the field additions collapse into one
        ``np.bitwise_xor.reduce``.  This is the headline kernel; see
        DESIGN.md §10 for measured speedups over per-packet
        :meth:`linear_combination`.
        """
        c = np.asarray(coeff_matrix, dtype=self.dtype)
        b = np.asarray(blocks, dtype=self.dtype)
        if c.ndim != 2 or b.ndim != 2 or c.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {c.shape} @ {b.shape}")
        m, k = c.shape
        n = b.shape[1]
        out = np.zeros((m, n), dtype=self.dtype)
        if k == 0 or n == 0 or m == 0:
            return out
        # Flatten the 2-D table lookup into one `take`: the index of
        # C[i,j] * B[j,l] in MUL.ravel() is C[i,j] * order + B[j,l],
        # at most order**2 - 1, so uint16 index arithmetic is exact
        # and the (m, k, n) index temporary is a quarter of intp's.
        flat = self.MUL.reshape(-1)
        c_idx = c.astype(np.uint16) * self.order
        step = max(1, self._MATMUL_CHUNK_ELEMS // max(1, k * n))
        for s in range(0, m, step):
            indices = c_idx[s : s + step, :, None] + b[None, :, :]
            np.bitwise_xor.reduce(flat.take(indices), axis=1, out=out[s : s + step])
        return out

    def row_product(self, weights: FieldArray, rows: FieldArray) -> FieldArray:
        """One weight row times a matrix: ``weights @ rows``, shape (n,).

        The m = 1 case of :meth:`matmul` — a relay's per-arrival recode
        — for arrays already of the field's dtype: same flat-table
        gather, none of the batch set-up (input coercion, zeroed output,
        chunk loop), which outweighs the arithmetic for one short row.
        """
        if weights.ndim != 1 or rows.ndim != 2 or weights.shape[0] != rows.shape[0]:
            raise ValueError(f"shape mismatch: {weights.shape} @ {rows.shape}")
        indices = (weights.astype(np.uint16) * self.order)[:, None] + rows
        mixed: FieldArray = np.bitwise_xor.reduce(self.MUL.reshape(-1).take(indices), axis=0)
        return mixed

    def scale_into(self, coeff: Coefficient, vec: FieldLike, out: FieldArray) -> FieldArray:
        """``out[...] = coeff * vec`` into a caller-owned buffer.

        The in-place counterpart of :meth:`scale`: one gather straight
        into ``out``, zero allocations.  ``out`` may alias ``vec``.
        """
        vec = np.asarray(vec, dtype=self.dtype)
        if out.shape != vec.shape or out.dtype != self.dtype:
            raise ValueError(f"out buffer {out.dtype}{out.shape} does not match vec {vec.shape}")
        c = int(coeff)
        if c == 0:
            out[...] = 0
        elif c == 1:
            np.copyto(out, vec)
        else:
            np.take(self.mul_row(c), vec, out=out)
        return out

    def addmul_into(
        self, acc: FieldArray, coeff: Coefficient, vec: FieldLike, scratch: FieldArray | None = None
    ) -> FieldArray:
        """``acc ^= coeff * vec`` in place — the decoder's row operation.

        ``scratch`` (same shape as ``vec``) lets callers reuse one
        reduction buffer across calls; without it a temporary of
        ``vec``'s shape is allocated for the product.
        """
        vec = np.asarray(vec, dtype=self.dtype)
        if acc.shape != vec.shape or acc.dtype != self.dtype:
            raise ValueError(f"acc buffer {acc.dtype}{acc.shape} does not match vec {vec.shape}")
        c = int(coeff)
        if c == 0:
            return acc
        if c == 1:
            np.bitwise_xor(acc, vec, out=acc)
            return acc
        if scratch is None or scratch.shape != vec.shape or scratch.dtype != self.dtype:
            scratch = np.empty_like(vec)
        np.take(self.mul_row(c), vec, out=scratch)
        np.bitwise_xor(acc, scratch, out=acc)
        return acc

    # -- randomness ---------------------------------------------------

    def random_elements(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FieldArray:
        """Uniform random field elements (zero included), read off raw words.

        A row of ``n`` elements is ``ceil(n / lanes)`` outputs of
        ``bit_generator.random_raw`` viewed as bytes (host byte order;
        the top ``w`` bits of a lane for a sub-byte field),
        tail lanes dropped.  Rows start on word boundaries, so a
        ``(rows, n)`` draw equals ``rows`` successive ``n``-element draws,
        and ``random_raw`` keeps no buffer, so rewinding
        ``bit_generator.state`` replays a draw exactly.
        """
        if isinstance(size, tuple):
            *lead, n = size
            width = -(-n // self._lanes) * self._lanes
            raw = rng.bit_generator.random_raw(math.prod(lead) * width // self._lanes)
            out = np.ascontiguousarray(raw.view(self.dtype).reshape(*lead, width)[..., :n])
        else:  # one row: the per-packet draw, kept free of shape arithmetic
            out = rng.bit_generator.random_raw(-(-size // self._lanes)).view(self.dtype)[:size]
        return out >> self._lane_shift if self._lane_shift else out

    def random_nonzero(self, rng: np.random.Generator, size: int | tuple[int, ...]) -> FieldArray:
        """Uniform random nonzero field elements."""
        return rng.integers(1, self.order, size=size, dtype=np.uint32).astype(self.dtype)

    # -- misc -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"GaloisField(2^{self.w})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisField) and other.w == self.w

    def __hash__(self) -> int:
        return hash(("GaloisField", self.w))


GF16 = GaloisField(4)
GF256 = GaloisField(8)
