"""NC wire header.

The paper inserts a network-coding layer between UDP and the application
layer.  Its header carries everything a relay or receiver needs to place
a coded block: the multicast session id, the generation number, and the
encoding coefficient vector.  The fixed part is 12 bytes — the paper's
8 bytes plus a CRC32 integrity word (DESIGN.md §11) — and the
coefficient vector adds one byte per block for GF(2^8) (so 16 bytes
total at the default 4 blocks per generation; with a 1460-byte block,
the 8-byte UDP header and the 20-byte IP header the packet occupies
1504 bytes, four over the classic 1500-byte MTU — exact MTU fill needs
1456-byte blocks, see DESIGN.md §11).

Layout (big-endian):

====== ======= ================================================
offset size    field
====== ======= ================================================
0      2       session id
2      4       generation id
6      1       block count k (coefficient vector length)
7      1       flags (bit 0: systematic; bits 1-7 reserved)
8      4       CRC32 over bytes 0..8 and every byte after 12
               (coefficients, and the payload when one follows)
12     k       coefficients, one GF(2^8) element per block
====== ======= ================================================

The checksum covers everything in the wire image *except itself*: the
8-byte fixed prefix, the coefficient vector, and — when the header
fronts a coded packet — the payload block.  A header serialized on its
own (:meth:`NCHeader.encode`) covers prefix + coefficients only;
:meth:`repro.rlnc.packet.CodedPacket.encode` covers the full packet.
Verification therefore lives where the covered extent is known:
:meth:`CodedPacket.decode <repro.rlnc.packet.CodedPacket.decode>`
raises :class:`ChecksumError` on a mismatch.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import numpy.typing as npt

#: Checksum-covered fixed prefix (everything before the CRC word).
_HEAD = struct.Struct("!HIBB")
#: Full fixed header including the CRC32 word.
_FIXED = struct.Struct("!HIBBI")
_CRC = struct.Struct("!I")

_UINT8 = np.dtype(np.uint8)

FLAG_SYSTEMATIC = 0x01

FIXED_HEADER_BYTES = _FIXED.size  # 12: the paper's 8 + the CRC32 word
CHECKSUM_OFFSET = _HEAD.size      # the CRC32 word sits at bytes 8..12


class ChecksumError(ValueError):
    """A wire image failed CRC32 verification (corrupt on the wire)."""


def wire_checksum(*parts: bytes) -> int:
    """CRC32 over the concatenation of ``parts``, computed incrementally."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def verify_wire(data: bytes) -> bool:
    """Check the CRC word at bytes 8..12 against the rest of ``data``.

    The covered extent is bytes ``0..8`` plus ``12..`` — i.e. the whole
    image except the checksum itself.
    """
    if len(data) < FIXED_HEADER_BYTES:
        return False
    stored = _CRC.unpack_from(data, CHECKSUM_OFFSET)[0]
    return stored == wire_checksum(data[:CHECKSUM_OFFSET], data[FIXED_HEADER_BYTES:])


# Cached per-block-count wire structs: one pack call serializes the
# fixed fields *and* the coefficient vector (k is tiny and stable per
# session, so the cache stays a handful of entries).
_WIRE_STRUCTS: dict[int, struct.Struct] = {}


def _wire_struct(block_count: int) -> struct.Struct:
    cached = _WIRE_STRUCTS.get(block_count)
    if cached is None:
        cached = struct.Struct(f"!HIBBI{block_count}s")
        _WIRE_STRUCTS[block_count] = cached
    return cached


# Whole-packet structs (header + payload), keyed by (k, payload bytes);
# both are per-session constants, so the cache stays small.
_PACKET_STRUCTS: dict[tuple[int, int], struct.Struct] = {}


def packet_struct(block_count: int, payload_bytes: int) -> struct.Struct:
    """Cached struct covering a full coded packet's wire image."""
    key = (block_count, payload_bytes)
    cached = _PACKET_STRUCTS.get(key)
    if cached is None:
        cached = struct.Struct(f"!HIBBI{block_count}s{payload_bytes}s")
        _PACKET_STRUCTS[key] = cached
    return cached


class NCHeader:
    """Parsed NC header.

    Attributes
    ----------
    session_id:
        Controller-assigned unique id of the multicast session.
    generation_id:
        Sequence number of the generation this block codes over.
    coefficients:
        GF(2^8) coefficient vector, length = blocks per generation.
    systematic:
        True when the packet carries an original (uncoded) block; the
        coefficient vector is then a unit vector.

    A slotted record, built once per emitted packet: a coefficient
    vector that already is a 1-D ``uint8`` array is kept as given (no
    copy, no re-wrap); anything else is coerced with ``np.asarray``.
    Headers are shared between the packets that carry them, so nothing
    assigns to a header after construction.
    """

    __slots__ = ("session_id", "generation_id", "coefficients", "systematic")

    def __init__(
        self,
        session_id: int,
        generation_id: int,
        coefficients: npt.ArrayLike,
        systematic: bool = False,
    ) -> None:
        coeffs: npt.NDArray[np.uint8] = (
            coefficients
            if isinstance(coefficients, np.ndarray) and coefficients.dtype is _UINT8
            else np.asarray(coefficients, dtype=np.uint8)
        )
        if not 0 <= session_id < 1 << 16:
            raise ValueError(f"session_id {session_id} out of range for 16 bits")
        if not 0 <= generation_id < 1 << 32:
            raise ValueError(f"generation_id {generation_id} out of range for 32 bits")
        if coeffs.ndim != 1 or not 1 <= coeffs.shape[0] <= 255:
            raise ValueError("coefficient vector must be 1-D with 1..255 entries")
        self.session_id = session_id
        self.generation_id = generation_id
        self.coefficients = coeffs
        self.systematic = systematic

    def __repr__(self) -> str:
        return (
            f"NCHeader(session_id={self.session_id!r}, generation_id={self.generation_id!r}, "
            f"coefficients={self.coefficients!r}, systematic={self.systematic!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NCHeader)
            and self.session_id == other.session_id
            and self.generation_id == other.generation_id
            and self.systematic == other.systematic
            and np.array_equal(self.coefficients, other.coefficients)
        )

    @property
    def block_count(self) -> int:
        return self.coefficients.shape[0]

    @property
    def size_bytes(self) -> int:
        """Serialized header length: 12 fixed bytes + one per coefficient."""
        return FIXED_HEADER_BYTES + self.block_count

    def _head_bytes(self) -> bytes:
        """The checksum-covered fixed prefix (bytes 0..8 of the wire image)."""
        flags = FLAG_SYSTEMATIC if self.systematic else 0
        return _HEAD.pack(self.session_id, self.generation_id, self.block_count, flags)

    def content_checksum(self, payload: bytes = b"") -> int:
        """CRC32 over prefix + coefficients (+ ``payload`` when given)."""
        return wire_checksum(self._head_bytes(), self.coefficients.tobytes(), payload)

    def encode(self) -> bytes:
        """Serialize to the wire format — one cached-struct pack call.

        The embedded checksum covers prefix + coefficients (no payload
        follows in a header-only image).
        """
        k = self.block_count
        flags = FLAG_SYSTEMATIC if self.systematic else 0
        coeff_bytes = self.coefficients.tobytes()
        crc = wire_checksum(_HEAD.pack(self.session_id, self.generation_id, k, flags), coeff_bytes)
        return _wire_struct(k).pack(self.session_id, self.generation_id, k, flags, crc, coeff_bytes)

    @classmethod
    def decode_from(cls, data: bytes) -> tuple["NCHeader", int]:
        """Parse a header at the front of ``data``; returns (header, payload offset).

        The fast-path variant of :meth:`decode`: no payload slice is
        materialized, so callers that hand the payload bytes straight to
        numpy (``CodedPacket.decode``) skip one full-payload copy.  The
        CRC word is *not* checked here — its covered extent depends on
        whether a payload follows, which only the caller knows; use
        :func:`verify_wire` (or ``CodedPacket.decode``) to verify.
        """
        if len(data) < FIXED_HEADER_BYTES:
            raise ValueError(f"short NC header: {len(data)} bytes")
        session_id, generation_id, k, flags, _crc = _FIXED.unpack_from(data)
        end = FIXED_HEADER_BYTES + k
        if len(data) < end:
            raise ValueError(f"truncated coefficient vector: want {k}, have {len(data) - FIXED_HEADER_BYTES}")
        coeffs = np.frombuffer(data, dtype=np.uint8, count=k, offset=FIXED_HEADER_BYTES).copy()
        return cls(session_id, generation_id, coeffs, bool(flags & FLAG_SYSTEMATIC)), end

    @classmethod
    def decode(cls, data: bytes) -> tuple["NCHeader", bytes]:
        """Parse a header off the front of ``data``; returns (header, payload)."""
        header, end = cls.decode_from(data)
        return header, data[end:]
