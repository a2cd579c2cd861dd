"""Datagrams: what actually occupies link capacity in the simulator.

A :class:`Datagram` models a UDP/IP packet.  ``payload`` is any Python
object (usually a :class:`repro.rlnc.packet.CodedPacket` or a probe
marker); ``payload_bytes`` is its *logical* wire size, which is what
capacity and queue accounting use.  Keeping logical size separate from
the in-memory representation lets experiments run in coefficients-only
mode (tiny arrays, real linear algebra) while still charging full
1472-byte packets against link bandwidth — see DESIGN.md §2.
"""

from __future__ import annotations

from typing import Any

IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
_HEADER_BYTES = UDP_HEADER_BYTES + IP_HEADER_BYTES


class Datagram:
    """One UDP/IP packet in flight.

    Attributes
    ----------
    src, dst:
        Node names (the simulator's analogue of IP addresses).
    payload:
        Application object carried by the packet.
    payload_bytes:
        Logical UDP payload size in bytes (NC header + coded block for
        data packets).
    dst_port:
        UDP destination port; coding VNFs listen on a designated port
        (paper §III-A).
    wire_bytes, wire_bits:
        Total on-the-wire size (payload + UDP + IP headers), fixed at
        construction: every link a datagram crosses charges it, so it is
        computed once, not once per read.

    A datagram is a record with identity equality: a duplicate made on
    the wire is a distinct object carrying the same fields.
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "payload_bytes",
        "dst_port",
        "src_port",
        "created_at",
        "wire_bytes",
        "wire_bits",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        payload_bytes: int,
        dst_port: int = 0,
        src_port: int = 0,
        created_at: float = 0.0,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.dst_port = dst_port
        self.src_port = src_port
        self.created_at = created_at
        wire_bytes = self.wire_bytes = payload_bytes + _HEADER_BYTES
        self.wire_bits = 8 * wire_bytes

    def __repr__(self) -> str:
        return f"Datagram({self.src}->{self.dst}:{self.dst_port}, {self.payload_bytes}B payload)"
