"""Source-side RLNC encoder.

For each generation the encoder can emit:

- *systematic* packets — the original blocks verbatim, with unit
  coefficient vectors.  Sending the originals first means a receiver on
  a loss-free path decodes with zero linear-algebra work; only losses
  cost coded repair packets.
- *coded* packets — random linear combinations with coefficients drawn
  uniformly from the field.

The paper's redundancy settings map directly: NC0 emits exactly k
packets per generation (systematic or coded), NC1 emits k+1, NC2 emits
k+2; see :class:`repro.rlnc.redundancy.RedundancyPolicy`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.gf import GF256, GaloisField
from repro.rlnc.generation import Generation
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket
from repro.util.rng import derive_rng


class Encoder:
    """RLNC encoder for a single generation of one session.

    Parameters
    ----------
    session_id:
        Session the generation belongs to.
    generation:
        The original blocks to code over.
    field:
        Coefficient field; GF(2^8) by default, per the paper.
    systematic:
        Emit the k original blocks (as unit-coefficient packets) before
        any dense coded packet.
    rng:
        Randomness source for coefficients; pass a seeded generator for
        reproducible traces.
    """

    def __init__(
        self,
        session_id: int,
        generation: Generation,
        field: GaloisField = GF256,
        systematic: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.session_id = session_id
        self.generation = generation
        self.field = field
        self.systematic = systematic
        self._rng = rng if rng is not None else derive_rng(
            "rlnc.encoder", session_id, generation.generation_id
        )
        self._emitted = 0

    @property
    def block_count(self) -> int:
        return self.generation.block_count

    def next_packet(self) -> CodedPacket:
        """Produce the next packet for this generation.

        The first k packets are systematic when enabled; every packet
        after that is a fresh random combination.
        """
        k = self.block_count
        if self.systematic and self._emitted < k:
            index = self._emitted
            coeffs = np.zeros(k, dtype=self.field.dtype)
            coeffs[index] = 1
            packet = CodedPacket(
                header=NCHeader(
                    session_id=self.session_id,
                    generation_id=self.generation.generation_id,
                    coefficients=coeffs,
                    systematic=True,
                ),
                payload=self.generation.blocks[index].copy(),
            )
        else:
            packet = self._coded_packet()
        self._emitted += 1
        return packet

    def _coded_packet(self) -> CodedPacket:
        k = self.block_count
        coeffs = self.field.random_elements(self._rng, k)
        if not coeffs.any():
            # An all-zero vector carries no information; resample the
            # first coefficient to be nonzero (probability 256^-k event).
            coeffs[0] = self.field.random_nonzero(self._rng, 1)[0]
        payload = self.field.linear_combination(coeffs, self.generation.blocks)
        return CodedPacket(
            header=NCHeader(
                session_id=self.session_id,
                generation_id=self.generation.generation_id,
                coefficients=coeffs,
                systematic=False,
            ),
            payload=payload,
        )

    def coded_packets(self, count: int) -> list[CodedPacket]:
        """Produce ``count`` dense coded packets through one batch matmul.

        All coefficient vectors for the burst are drawn in a single RNG
        call and the payloads come from one :meth:`GaloisField.matmul` —
        this is the data-plane fast path for redundancy bursts and
        repair emission.  It is bit-identical to ``count`` sequential
        :meth:`next_packet` calls: ``random_elements`` starts every row
        of a batch on a generator-word boundary, exactly where the next
        single-row draw would start, and when a batch contains an
        all-zero coefficient row (whose inline resample
        would shift the stream) the generator is rewound and the burst
        replayed draw-for-draw.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return []
        k = self.block_count
        state = self._rng.bit_generator.state
        coeffs = self.field.random_elements(self._rng, (count, k))
        if not coeffs.any(axis=1).all():
            # An all-zero row carries no information; the per-packet path
            # resamples its first coefficient *inline*, consuming one
            # extra draw mid-stream.  Rewind and replay sequentially so
            # the burst stays stream-identical even in this rare case.
            self._rng.bit_generator.state = state
            for i in range(count):
                row = self.field.random_elements(self._rng, k)
                if not row.any():
                    row[0] = self.field.random_nonzero(self._rng, 1)[0]
                coeffs[i] = row
        payloads = self.field.matmul(coeffs, self.generation.blocks)
        packets = [
            CodedPacket(
                header=NCHeader(
                    session_id=self.session_id,
                    generation_id=self.generation.generation_id,
                    coefficients=coeffs[i],
                    systematic=False,
                ),
                payload=payloads[i],
            )
            for i in range(count)
        ]
        self._emitted += count
        return packets

    def next_packets(self, count: int) -> list[CodedPacket]:
        """Produce the next ``count`` packets, batching the coded tail.

        Systematic packets (when enabled and not yet exhausted) are
        emitted one by one as before; everything after flows through
        :meth:`coded_packets` in a single burst.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        out: list[CodedPacket] = []
        k = self.block_count
        while count > 0 and self.systematic and self._emitted < k:
            out.append(self.next_packet())
            count -= 1
        if count > 0:
            out.extend(self.coded_packets(count))
        return out

    def packets(self, count: int) -> Iterator[CodedPacket]:
        """Yield ``count`` packets (systematic first, then coded)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            yield self.next_packet()


def encode_message(
    session_id: int,
    generations: list[Generation],
    packets_per_generation: int,
    rng: np.random.Generator | None = None,
) -> list[CodedPacket]:
    """Encode a whole segmented message, generation by generation.

    ``packets_per_generation`` is k + redundancy; the paper's NC0/NC1/NC2
    correspond to k, k+1 and k+2.
    """
    rng = rng if rng is not None else derive_rng("rlnc.encode_message", session_id)
    out: list[CodedPacket] = []
    for gen in generations:
        enc = Encoder(session_id, gen, rng=rng)
        out.extend(enc.next_packets(packets_per_generation))
    return out
