"""Dirty-wire impairment models: corruption, duplication, blackholes.

The loss models in :mod:`repro.net.loss` answer one question — "did the
wire eat this packet?".  Real Internet paths misbehave in richer ways:
they *flip bits* (which, for RLNC, is far worse than loss — one corrupt
coefficient byte recoded downstream pollutes every derived packet), they
*duplicate* (retransmitting middleboxes, route flaps), and they
*blackhole* one direction of a path while the reverse keeps working
(asymmetric partitions).  This module models those as composable
:class:`Impairment` hooks that a :class:`~repro.net.link.Link` applies
after its loss model, each returning the list of datagrams that actually
continue toward the receiver.

Corruption semantics (DESIGN.md §11): simulated packets travel as Python
objects, so corruption cannot literally flip wire bytes.  Instead
:func:`corrupt_coded_packet` builds a *deep copy* of the coded packet
with flipped coefficient/payload bytes while carrying the **pristine**
packet's CRC32 seal — exactly what a real receiver would see after the
NC-layer checksum was computed at the sender and the bytes damaged in
flight.  Endpoint ``verify()`` then fails and the packet is dropped
before it can reach a recoder or Gaussian elimination.  A corrupted
datagram whose payload is *not* a coded packet (ACKs, probe payloads)
is dropped outright, modelling the kernel discarding a UDP datagram
with a bad checksum.

Determinism: a link with no impairments attached consumes exactly the
same RNG draw sequence as before this module existed, so all committed
chaos fingerprints and seeded experiments replay bit-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.net.packet import Datagram
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket

if TYPE_CHECKING:  # LinkStats is typing-only; link.py imports this module at runtime
    from repro.net.link import LinkStats


def corrupt_coded_packet(
    packet: CodedPacket, rng: np.random.Generator, byte_rate: float | None = None
) -> CodedPacket:
    """Return a bit-flipped deep copy carrying the pristine packet's seal.

    With ``byte_rate=None`` exactly one uniformly chosen byte (across
    coefficients + payload) gets one flipped bit; otherwise each byte is
    flipped independently with probability ``byte_rate`` (at least one,
    so a packet selected for corruption is always actually corrupt).
    """
    seal = packet.checksum if packet.checksum is not None else packet.content_checksum()
    coeffs = packet.header.coefficients.copy()
    payload = packet.payload.copy()
    k = int(coeffs.shape[0])
    total = k + int(payload.shape[0])
    if byte_rate is None:
        positions = np.asarray([rng.integers(0, total)])
    else:
        positions = np.flatnonzero(rng.random(total) < byte_rate)
        if positions.size == 0:
            positions = np.asarray([rng.integers(0, total)])
    bits = rng.integers(0, 8, size=positions.size)
    for pos, bit in zip(positions.tolist(), bits.tolist()):
        if pos < k:
            coeffs[pos] ^= np.uint8(1 << bit)
        else:
            payload[pos - k] ^= np.uint8(1 << bit)
    header = NCHeader(
        session_id=packet.session_id,
        generation_id=packet.generation_id,
        coefficients=coeffs,
        systematic=packet.header.systematic,
    )
    return CodedPacket(header=header, payload=payload, checksum=seal)


def _copy_with_payload(dgram: Datagram, payload: object) -> Datagram:
    """A fresh datagram carrying ``payload`` on the same flow."""
    return Datagram(
        dgram.src, dgram.dst, payload, dgram.payload_bytes, dgram.dst_port, dgram.src_port, dgram.created_at
    )


class Impairment:
    """Base class: maps one in-flight datagram to the datagrams delivered.

    ``apply`` returns ``[]`` to swallow the packet, ``[dgram]`` to pass
    it through (possibly replaced by a damaged copy), or several entries
    to duplicate it.  Implementations increment the link's stats
    counters themselves so each mode stays separately observable.
    """

    def apply(self, dgram: Datagram, rng: np.random.Generator, stats: "LinkStats") -> list[Datagram]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget correlation state (called when a flapped link reconnects)."""


class BitFlipCorruption(Impairment):
    """Flip bits in coded packets at ``packet_rate`` (per-packet probability).

    ``byte_rate`` optionally makes each byte of a selected packet flip
    independently (burstier damage); ``None`` flips exactly one byte.
    Non-coded payloads selected for corruption are dropped, modelling
    the kernel's UDP checksum discarding the datagram.
    """

    def __init__(self, packet_rate: float, byte_rate: float | None = None) -> None:
        if not 0.0 <= packet_rate <= 1.0:
            raise ValueError(f"packet_rate must be in [0, 1], got {packet_rate}")
        if byte_rate is not None and not 0.0 < byte_rate <= 1.0:
            raise ValueError(f"byte_rate must be in (0, 1], got {byte_rate}")
        self.packet_rate = float(packet_rate)
        self.byte_rate = byte_rate

    def apply(self, dgram: Datagram, rng: np.random.Generator, stats: "LinkStats") -> list[Datagram]:
        if rng.random() >= self.packet_rate:
            return [dgram]
        if isinstance(dgram.payload, CodedPacket):
            stats.corrupted_packets += 1
            damaged = corrupt_coded_packet(dgram.payload, rng, self.byte_rate)
            return [_copy_with_payload(dgram, damaged)]
        stats.dropped_corrupt += 1
        return []

    def __repr__(self) -> str:
        return f"BitFlipCorruption({self.packet_rate}, byte_rate={self.byte_rate})"


class Duplication(Impairment):
    """Deliver an extra copy of a packet with probability ``rate``.

    The copy is a fresh datagram (own jitter draw on delivery) sharing the original payload — receivers must tolerate the
    same coded packet arriving twice.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = float(rate)

    def apply(self, dgram: Datagram, rng: np.random.Generator, stats: "LinkStats") -> list[Datagram]:
        if rng.random() >= self.rate:
            return [dgram]
        stats.duplicated_packets += 1
        return [dgram, _copy_with_payload(dgram, dgram.payload)]

    def __repr__(self) -> str:
        return f"Duplication({self.rate})"


class Blackhole(Impairment):
    """Silently swallow every packet on this (unidirectional) link.

    Links are unidirectional, so attaching a blackhole to one direction
    of a path while the reverse keeps flowing *is* the asymmetric
    partition: data keeps leaving, feedback never returns (or vice
    versa).  Unlike ``Link.down()`` the sender sees nothing — packets
    serialize, charge the queue, and vanish.
    """

    def apply(self, dgram: Datagram, rng: np.random.Generator, stats: "LinkStats") -> list[Datagram]:
        stats.dropped_blackhole += 1
        return []

    def __repr__(self) -> str:
        return "Blackhole()"
