"""In-network recoder: the data plane of a relay coding VNF.

A relay never needs to decode.  It buffers the coded packets it has
heard for a generation and emits *re-coded* packets: random linear
combinations of the buffered combinations, whose effective coefficient
vectors (w.r.t. the original blocks) it can compute by combining the
buffered headers with the same random weights.

The paper's VNF is *pipelined*: an intermediate node produces and
forwards a fresh coded packet immediately after each arrival from the
same (session, generation), and simply forwards the very first packet of
a generation verbatim (there is nothing yet to mix it with).
:meth:`Recoder.on_packet` implements exactly that policy.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.gf import GF256, FieldArray, GaloisField
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket, MalformedPacketError
from repro.util.rng import derive_rng


#: Duplicate-lookup key of one fused row.
_row_digest = zlib.crc32

class Recoder:
    """Recoding state for one (session, generation) at a relay VNF."""

    def __init__(
        self,
        session_id: int,
        generation_id: int,
        block_count: int,
        field: GaloisField = GF256,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.session_id = session_id
        self.generation_id = generation_id
        self.block_count = block_count
        self.field = field
        self._rng = rng if rng is not None else derive_rng(
            "rlnc.recoder", session_id, generation_id
        )
        # The relay's only copy of the generation: one pre-grown matrix
        # whose rows are [coefficients | payload], so a recode is one
        # product over a contiguous slab and no packet object is kept.
        self._rows: FieldArray | None = None
        self._payload_len = 0
        self._count = 0
        # Row digest -> indices of the rows carrying it, one map per
        # systematic flag (part of packet equality, not of the row).
        self._digests: tuple[dict[int, list[int]], dict[int, list[int]]] = ({}, {})

    @property
    def buffered(self) -> int:
        """Number of packets buffered for this generation."""
        return self._count

    def add(self, packet: CodedPacket) -> bool:
        """Buffer a received coded packet; False if it is a duplicate.

        A duplicate equals (``CodedPacket.__eq__``) a packet already
        buffered: it adds no degree of freedom and is not stored.  The
        lookup is one digest of the fused row, and since a digest is
        not the row, a hit is confirmed by comparing the rows.
        """
        header = packet.header
        if header.session_id != self.session_id or header.generation_id != self.generation_id:
            raise ValueError(
                f"packet for ({header.session_id}, {header.generation_id}) fed to recoder "
                f"for ({self.session_id}, {self.generation_id})"
            )
        k = self.block_count
        coefficients = header.coefficients
        payload = packet.payload
        if coefficients.shape[0] != k:
            raise MalformedPacketError(
                f"block count mismatch: packet has {coefficients.shape[0]}, recoder expects {k}"
            )
        rows = self._rows
        if rows is None:
            self._payload_len = int(payload.shape[0])
            rows = self._rows = np.empty((8, k + self._payload_len), dtype=self.field.dtype)
        if payload.shape[0] != self._payload_len:
            raise MalformedPacketError(
                f"payload is {payload.shape[0]} bytes, earlier packets had {self._payload_len}"
            )
        count = self._count
        if count == rows.shape[0]:
            grown = np.empty((2 * count, rows.shape[1]), dtype=self.field.dtype)
            grown[:count] = rows
            rows = self._rows = grown
        row = rows[count]  # the free slot; kept only if the packet is new
        row[:k] = coefficients
        row[k:] = payload
        holders = self._digests[header.systematic].setdefault(_row_digest(row), [])
        for index in holders:
            if np.array_equal(rows[index], row):
                return False
        holders.append(count)
        self._count = count + 1
        return True

    def _packet(self, mixed: FieldArray) -> CodedPacket:
        """Wrap one mixed ``[coefficients | payload]`` row as a packet."""
        k = self.block_count
        return CodedPacket(
            NCHeader(self.session_id, self.generation_id, mixed[:k], False), mixed[k:]
        )

    def recode(self) -> CodedPacket:
        """Emit one fresh combination of everything buffered so far."""
        count = self._count
        if not count:
            raise RuntimeError("cannot recode before any packet has been buffered")
        assert self._rows is not None
        field = self.field
        weights = field.random_elements(self._rng, count)
        if not weights.any():
            weights[-1] = field.random_nonzero(self._rng, 1)[0]
        return self._packet(field.row_product(weights, self._rows[:count]))

    def recode_batch(self, count: int) -> list[CodedPacket]:
        """Emit ``count`` fresh combinations through one batch matmul.

        Draws every weight vector in a single RNG call; bit-identical to
        ``count`` sequential :meth:`recode` calls.  When the batch holds
        an all-zero weight row (whose inline resample would shift the
        stream) the generator is rewound and the draws replayed
        sequentially, so even that rare case matches draw-for-draw.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not self._count:
            raise RuntimeError("cannot recode before any packet has been buffered")
        if count <= 1:
            return [self.recode()] if count else []
        assert self._rows is not None
        state = self._rng.bit_generator.state
        weights = self.field.random_elements(self._rng, (count, self._count))
        if not weights.any(axis=1).all():
            self._rng.bit_generator.state = state
            for i in range(count):
                row = self.field.random_elements(self._rng, self._count)
                if not row.any():
                    row[-1] = self.field.random_nonzero(self._rng, 1)[0]
                weights[i] = row
        mixed = self.field.matmul(weights, self._rows[: self._count])
        return [self._packet(row) for row in mixed]

    def on_packet(self, packet: CodedPacket) -> CodedPacket:
        """Pipelined relay policy: buffer, then emit.

        The first packet of a generation is forwarded verbatim (the paper:
        "in case the packet is the first one in its generation received by
        the VNF, the VNF simply forwards it"); every later arrival triggers
        a fresh recoded combination over the whole buffer.
        """
        first = self.buffered == 0
        self.add(packet)
        if first:
            return packet
        return self.recode()
