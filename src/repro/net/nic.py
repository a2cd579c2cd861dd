"""NIC processing-cost models: DPDK poll mode vs kernel interrupts.

The paper's data plane uses DPDK poll-mode drivers (plus KNI for kernel
addressing) instead of interrupt-driven netfilter processing, because
interrupts cost "thousands of CPU cycles" of context switching per
packet and degrade as the interrupt rate grows (§III-B2).

We cannot run DPDK in a simulator, but the *consequence* the paper
relies on — per-packet CPU cost bounding the VNF's coding rate — is
easy to model.  A :class:`NicModel` converts a packet rate into CPU
time; the VNF's sustainable throughput is then
``min(link rate, coding rate, NIC packet rate)``.  The ablation bench
compares the two models' packet ceilings.

Default constants are drawn from published DPDK/netfilter measurements:
poll mode ~80 cycles/packet of I/O overhead, interrupt path ~2400
cycles/packet plus a context-switch penalty that grows with interrupt
rate (modelled as a soft saturation).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NicModel:
    """Base NIC cost model: fixed CPU cycles per packet."""

    cycles_per_packet: float
    cpu_hz: float = 2.8e9  # Xeon E5-2680 v2 nominal clock

    def cpu_seconds_per_packet(self, packet_rate_pps: float = 0.0) -> float:
        """CPU time charged per packet at the given arrival rate."""
        if packet_rate_pps < 0:
            raise ValueError("packet rate cannot be negative")
        return self.cycles_per_packet / self.cpu_hz

    def max_packet_rate(self, cpu_share: float = 1.0) -> float:
        """Packets/s one core (or ``cpu_share`` of it) can sustain."""
        if not 0 < cpu_share <= 1.0:
            raise ValueError("cpu_share must be in (0, 1]")
        return cpu_share / self.cpu_seconds_per_packet()

    def max_throughput_bps(self, packet_bytes: int) -> float:
        """Bits/s ceiling for packets of the given size."""
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        return self.max_packet_rate() * packet_bytes * 8


@dataclass(frozen=True)
class PollModeNic(NicModel):
    """DPDK-style poll-mode driver: cheap, constant per-packet cost."""

    cycles_per_packet: float = 80.0


@dataclass(frozen=True)
class InterruptNic(NicModel):
    """Interrupt-driven kernel path (netfilter-style).

    Beyond the base cost, efficiency deteriorates as the interrupt rate
    grows: each interrupt carries a context-switch penalty, and at high
    rates cache/TLB pollution adds a superlinear term.  We model the
    per-packet cost as ``base + switch·(1 + rate/saturation_pps)``.
    """

    cycles_per_packet: float = 2400.0
    context_switch_cycles: float = 1200.0
    saturation_pps: float = 250_000.0

    def cpu_seconds_per_packet(self, packet_rate_pps: float = 0.0) -> float:
        if packet_rate_pps < 0:
            raise ValueError("packet rate cannot be negative")
        penalty = self.context_switch_cycles * (1.0 + packet_rate_pps / self.saturation_pps)
        return (self.cycles_per_packet + penalty) / self.cpu_hz

    def max_packet_rate(self, cpu_share: float = 1.0) -> float:
        """Solve rate = share / cost(rate) for the self-limiting rate."""
        if not 0 < cpu_share <= 1.0:
            raise ValueError("cpu_share must be in (0, 1]")
        # rate * (base + cs * (1 + rate/sat)) = share * hz
        # -> (cs/sat) rate^2 + (base + cs) rate - share*hz = 0
        a = self.context_switch_cycles / self.saturation_pps
        b = self.cycles_per_packet + self.context_switch_cycles
        c = -cpu_share * self.cpu_hz
        disc = b * b - 4 * a * c
        return (-b + disc**0.5) / (2 * a)
