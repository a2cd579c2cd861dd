"""Galois-field arithmetic substrate.

Randomized linear network coding (RLNC) mixes packets by taking linear
combinations of data blocks with coefficients drawn from a finite field.
The paper follows common practice and codes over GF(2^8) (one coefficient
per byte), the field size observed to maximize throughput in prior work
(Chou et al., Airlift).  This package provides:

- :class:`~repro.gf.field.GaloisField` — vectorized arithmetic over
  GF(2^w) for w in {4, 8}, built on numpy log/antilog tables so that
  coding whole packets is a handful of table-indexing operations instead
  of a per-byte Python loop.
- :mod:`repro.gf.matrix` — dense linear algebra over the field
  (multiplication, rank, RREF, inversion, solving), the machinery behind
  RLNC decoding.

The default field used throughout the reproduction is :data:`GF256`,
matching the paper.
"""

from repro.gf.field import (
    GF16,
    GF256,
    Coefficient,
    FieldArray,
    FieldLike,
    GaloisField,
)
from repro.gf.matrix import (
    gf_inverse,
    gf_matmul,
    gf_matvec,
    gf_rank,
    gf_rref,
    gf_solve,
    is_invertible,
)

__all__ = [
    "GaloisField",
    "FieldArray",
    "FieldLike",
    "Coefficient",
    "GF16",
    "GF256",
    "gf_matmul",
    "gf_matvec",
    "gf_rank",
    "gf_rref",
    "gf_inverse",
    "gf_solve",
    "is_invertible",
]
