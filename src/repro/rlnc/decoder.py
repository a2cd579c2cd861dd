"""Progressive Gaussian-elimination RLNC decoder.

The decoder keeps the coefficient matrix of everything it has usefully
heard in row-echelon form, folding each new packet in as it arrives
(O(k^2) per packet instead of O(k^3) once at the end).  A packet that is
linearly dependent on what is already known is recognized — its row
reduces to zero — and discarded; :attr:`Decoder.redundant` counts these,
which is the statistic the paper's generation-size study (Fig. 4) trades
against coding delay.

Decoding completes when rank reaches k; back-substitution then recovers
the original generation.

Rows are stored fused, ``[coefficients | payload]`` in one matrix — the
layout :class:`~repro.rlnc.recoder.Recoder` uses — so every elimination
step is one table gather and one XOR over the whole row instead of one
pair for the coefficients and another for the payload.
"""

from __future__ import annotations

import numpy as np

from repro.gf import GF256, GaloisField
from repro.rlnc.generation import Generation
from repro.rlnc.packet import CodedPacket, MalformedPacketError


class Decoder:
    """Decoder state for one (session, generation)."""

    def __init__(
        self,
        session_id: int,
        generation_id: int,
        block_count: int,
        block_bytes: int,
        field: GaloisField = GF256,
    ) -> None:
        self.session_id = session_id
        self.generation_id = generation_id
        self.block_count = block_count
        self.block_bytes = block_bytes
        self.field = field
        # Row-echelon state: _rows[r] is [coefficients | payload] with
        # its pivot at the column mapped to r in _pivot_rows.
        self._rows = np.zeros((block_count, block_count + block_bytes), dtype=field.dtype)
        self._pivot_rows: dict[int, int] = {}  # pivot column -> row index
        # Every incoming packet is reduced in place in _work, products
        # land in _scratch, so folding a packet allocates nothing.
        self._work = np.empty(block_count + block_bytes, dtype=field.dtype)
        self._scratch = np.empty(block_count + block_bytes, dtype=field.dtype)
        self.received = 0
        self.redundant = 0

    @property
    def rank(self) -> int:
        """Degrees of freedom collected so far."""
        return len(self._pivot_rows)

    @property
    def complete(self) -> bool:
        """True once the generation can be fully decoded."""
        return self.rank == self.block_count

    def missing_pivots(self) -> tuple[int, ...]:
        """Pivot columns not yet covered — the blocks a NACK asks for.

        For a systematic (uncoded) stream these are exactly the missing
        block indices; for a coded stream they indicate how many more
        degrees of freedom are needed (any fresh combinations do).
        """
        return tuple(col for col in range(self.block_count) if col not in self._pivot_rows)

    def add(self, packet: CodedPacket) -> bool:
        """Fold a packet in; returns True if it was innovative."""
        header = packet.header
        if header.session_id != self.session_id or header.generation_id != self.generation_id:
            raise ValueError(
                f"packet for ({header.session_id}, {header.generation_id}) fed to decoder "
                f"for ({self.session_id}, {self.generation_id})"
            )
        k = self.block_count
        coefficients = header.coefficients
        payload = packet.payload
        if coefficients.shape[0] != k:
            raise MalformedPacketError("coefficient vector length does not match the decoder's block count")
        if payload.shape[0] != self.block_bytes:
            raise MalformedPacketError(
                f"payload is {payload.shape[0]} bytes, decoder expects {self.block_bytes}"
            )
        self.received += 1
        field = self.field
        rows = self._rows
        pivot_rows = self._pivot_rows
        work = self._work
        work[:k] = coefficients
        work[k:] = payload

        # Reduce against existing pivots, in place.
        for col in range(k):
            factor = work.item(col)
            if not factor:
                continue
            row = pivot_rows.get(col)
            if row is None:
                # New pivot: normalize straight into the stored row.
                slot = len(pivot_rows)
                field.scale_into(field.scalar_inv(factor), work, rows[slot])
                pivot_rows[col] = slot
                return True
            field.addmul_into(work, factor, rows[row], scratch=self._scratch)
        # Reduced to zero: linearly dependent.
        self.redundant += 1
        return False

    def decode(self) -> Generation:
        """Recover the original blocks; requires :attr:`complete`."""
        if not self.complete:
            raise RuntimeError(f"decoder has rank {self.rank} < {self.block_count}; cannot decode yet")
        # Back-substitution on a copy: eliminate above-pivot entries so
        # the coefficient part becomes the identity (rows indexed by
        # pivot) and the payload part holds the original blocks.
        k = self.block_count
        rows = self._rows.copy()
        order = sorted(self._pivot_rows.items())  # (pivot column, row), ascending column
        for i in range(len(order) - 1, -1, -1):
            col, row = order[i]
            for _, row_j in order[:i]:
                factor = rows.item(row_j, col)
                if factor:
                    self.field.addmul_into(rows[row_j], factor, rows[row], scratch=self._scratch)
        blocks = np.zeros((k, self.block_bytes), dtype=np.uint8)
        for col, row in order:
            blocks[col] = rows[row, k:]
        return Generation(generation_id=self.generation_id, blocks=blocks)
