"""Coded packet: NC header + one coded block of payload."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.rlnc.header import (
    ChecksumError,
    FLAG_SYSTEMATIC,
    NCHeader,
    packet_struct,
    verify_wire,
)


class MalformedPacketError(ValueError):
    """A packet's block count or payload length disagrees with the
    generation state it names (hostile or confused sender): droppable
    wire input, unlike the plain ``ValueError`` of a packet handed to
    the wrong generation's state, which is a caller's bug."""


@dataclass(eq=False)
class CodedPacket:
    """One RLNC packet as it travels the data plane.

    ``payload`` is the coded block as GF(2^8) symbols (uint8).  The wire
    representation is the fixed header (incl. CRC32), coefficients, and
    ``payload.tobytes()``; for a 1460-byte block and 4 blocks per
    generation it occupies 1476 bytes of UDP payload (DESIGN.md §11 has
    the MTU arithmetic).

    Integrity is two-layered.  On the byte codec, :meth:`encode` embeds
    a CRC32 covering the whole image and :meth:`decode` verifies it,
    raising :class:`~repro.rlnc.header.ChecksumError` on corruption.
    In the object-level simulator — where packets travel as Python
    objects, not bytes — ``checksum`` is a lazy seal: ``None`` means
    "never serialized, trusted" (:meth:`verify` is then trivially true,
    so clean runs pay nothing), while an impairment that mutates a copy
    of the packet carries the *pristine* seal along, which is exactly
    what lets a VNF or receiver detect the tampering.
    """

    header: NCHeader
    payload: npt.NDArray[np.uint8]
    #: CRC32 seal over header prefix + coefficients + payload, or
    #: ``None`` when the packet has never been sealed (trusted).
    checksum: int | None = None

    def __post_init__(self) -> None:
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        if self.payload.ndim != 1:
            raise ValueError("payload must be a 1-D byte array")

    @property
    def session_id(self) -> int:
        return self.header.session_id

    @property
    def generation_id(self) -> int:
        return self.header.generation_id

    @property
    def coefficients(self) -> npt.NDArray[np.uint8]:
        return self.header.coefficients

    @property
    def size_bytes(self) -> int:
        """Total NC-layer size (header + block) in bytes."""
        return self.header.size_bytes + int(self.payload.shape[0])

    # -- integrity ---------------------------------------------------------

    def content_checksum(self) -> int:
        """CRC32 over the packet's content (what the wire image embeds)."""
        return self.header.content_checksum(self.payload.tobytes())

    def seal(self) -> "CodedPacket":
        """Stamp the current content's checksum onto the packet."""
        self.checksum = self.content_checksum()
        return self

    def verify(self) -> bool:
        """True unless a carried seal disagrees with the content.

        Unsealed packets (``checksum is None``) verify trivially — the
        clean-path cost of integrity is zero; only packets that crossed
        an impairing link (or the byte codec) carry a seal to check.
        """
        return self.checksum is None or self.checksum == self.content_checksum()

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize header and payload to bytes.

        One pack call through a cached :class:`struct.Struct` covering
        the whole wire image — no header-bytes + payload-bytes
        concatenation on the hot path.  The embedded CRC32 covers every
        byte of the image except itself.
        """
        header = self.header
        flags = FLAG_SYSTEMATIC if header.systematic else 0
        coeff_bytes = header.coefficients.tobytes()
        payload_bytes = self.payload.tobytes()
        crc = header.content_checksum(payload_bytes)
        return packet_struct(header.block_count, self.payload.nbytes).pack(
            header.session_id,
            header.generation_id,
            header.block_count,
            flags,
            crc,
            coeff_bytes,
            payload_bytes,
        )

    @classmethod
    def decode(cls, data: bytes) -> "CodedPacket":
        """Parse a serialized coded packet (no intermediate payload slice).

        Raises :class:`~repro.rlnc.header.ChecksumError` when the CRC32
        word does not match the image.
        """
        if not verify_wire(data):
            raise ChecksumError("coded packet failed CRC32 verification")
        header, offset = NCHeader.decode_from(data)
        payload = np.frombuffer(data, dtype=np.uint8, offset=offset).copy()
        return cls(header=header, payload=payload)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CodedPacket)
            and self.header == other.header
            and np.array_equal(self.payload, other.payload)
        )

    def __repr__(self) -> str:
        return (
            f"CodedPacket(session={self.session_id}, gen={self.generation_id}, "
            f"k={self.header.block_count}, systematic={self.header.systematic}, "
            f"block={self.payload.shape[0]}B)"
        )
