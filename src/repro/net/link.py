"""Unidirectional links: capacity, propagation delay, queueing, loss.

A link serializes packets at ``capacity_bps``, holds at most
``queue_bytes`` of backlog (drop-tail beyond that), applies its loss
model per packet, then delivers after ``delay_s`` of propagation.  The
model is the standard store-and-forward pipe: a packet that starts
transmitting at t arrives at ``t + wire_bits/capacity + delay``.

Capacity and delay can be changed mid-run (``set_capacity`` /
``set_delay``) — that is how experiments emulate the paper's netem
bandwidth cuts (Fig. 11) and delay shifts (Alg. 2 triggers).
Per-packet counters feed the measurement layer.

Links can also fail outright: ``down()`` takes the link out of service
and deterministically drops every in-flight packet (serializing or
propagating), ``up()`` restores it.  Packets sent across a down/up
cycle never survive — each ``down()`` advances an epoch counter and a
packet is delivered only if the link's epoch is unchanged since it was
sent, which is what keeps fault-injection runs bit-reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.net.events import EventScheduler
from repro.net.impairments import Impairment
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Datagram
from repro.util.rng import derive_rng

DeliverFn = Callable[[Datagram], None]


class LinkStats:
    """Cumulative per-link counters."""

    __slots__ = (
        "sent_packets",
        "sent_bytes",
        "delivered_packets",
        "delivered_bytes",
        "dropped_loss",
        "dropped_queue",
        "dropped_down",
        "corrupted_packets",
        "dropped_corrupt",
        "duplicated_packets",
        "dropped_blackhole",
    )

    def __init__(self) -> None:
        self.sent_packets = 0
        self.sent_bytes = 0
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        self.dropped_down = 0
        self.corrupted_packets = 0
        self.dropped_corrupt = 0
        self.duplicated_packets = 0
        self.dropped_blackhole = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class Link:
    """One direction of a network path between two named nodes."""

    def __init__(
        self,
        scheduler: EventScheduler,
        src: str,
        dst: str,
        capacity_bps: float,
        delay_s: float,
        loss: LossModel | None = None,
        queue_bytes: int = 256 * 1024,
        rng: np.random.Generator | None = None,
        jitter_s: float = 0.0,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if delay_s < 0:
            raise ValueError("delay cannot be negative")
        if jitter_s < 0:
            raise ValueError("jitter cannot be negative")
        self.scheduler = scheduler
        self.src = src
        self.dst = dst
        self.capacity_bps = float(capacity_bps)
        self.delay_s = float(delay_s)
        self.loss = loss if loss is not None else NoLoss()
        self.queue_bytes = queue_bytes
        self.jitter_s = float(jitter_s)
        self._rng = rng if rng is not None else derive_rng("net.link", src, dst)
        # Dirty-wire impairments (corruption, duplication, blackhole),
        # applied after the loss model in attachment order.  An empty
        # list consumes zero extra RNG draws, so clean runs replay
        # bit-identically to builds that predate impairments.
        self.impairments: list[Impairment] = []
        self._deliver: DeliverFn | None = None
        self._backlog_bytes = 0
        self.is_up = True
        # Incremented on every down(); packets remember the epoch they
        # were sent in and are dropped if it changed before delivery.
        self._epoch = 0
        # Time at which the transmitter becomes free; packets serialize
        # one after another without modelling each queue slot separately.
        self._tx_free_at = 0.0
        self.stats = LinkStats()

    # -- wiring --------------------------------------------------------

    def connect(self, deliver: DeliverFn) -> None:
        """Register the receiver-side callback (done by the dst node)."""
        self._deliver = deliver

    # -- dynamics -------------------------------------------------------

    def set_capacity(self, capacity_bps: float) -> None:
        """Change link capacity (affects packets sent from now on)."""
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bps = float(capacity_bps)

    def set_delay(self, delay_s: float) -> None:
        if delay_s < 0:
            raise ValueError("delay cannot be negative")
        self.delay_s = float(delay_s)

    def set_loss(self, loss: LossModel) -> None:
        self.loss = loss

    def add_impairment(self, impairment: Impairment) -> None:
        """Attach a dirty-wire impairment (applied after the loss model)."""
        self.impairments.append(impairment)

    def clear_impairments(self) -> None:
        """Detach every impairment, restoring a clean wire."""
        self.impairments.clear()

    def down(self) -> None:
        """Fail the link: refuse new packets, drop everything in flight.

        The drop is deterministic: in-flight packets are tagged with the
        epoch they were sent in, and delivery checks the epoch — no RNG
        draw is consumed, so a fault-injection run stays bit-identical
        for a fixed seed.  Backlog counters drain as the stale
        transmission events fire.
        """
        if not self.is_up:
            return
        self.is_up = False
        self._epoch += 1
        # The transmitter is gone with the link; whatever was serializing
        # no longer occupies it when the link comes back.
        self._tx_free_at = self.scheduler.now

    def up(self) -> None:
        """Restore a failed link (packets lost meanwhile stay lost).

        A reconnect is a fresh wire: correlated state in the loss model
        (e.g. ``BurstLoss``'s previous-packet memory) and in any
        impairment must not leak across the outage, so both are reset.
        """
        if self.is_up:
            return
        self.is_up = True
        self.loss.reset()
        for impairment in self.impairments:
            impairment.reset()

    # -- data path --------------------------------------------------------

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

    def send(self, dgram: Datagram) -> bool:
        """Enqueue a packet; returns False if it was dropped at the tail."""
        if self._deliver is None:
            raise RuntimeError(f"link {self.src}->{self.dst} has no receiver connected")
        stats = self.stats
        wire_bytes = dgram.wire_bytes
        stats.sent_packets += 1
        stats.sent_bytes += wire_bytes
        if not self.is_up:
            stats.dropped_down += 1
            return False
        if self._backlog_bytes + wire_bytes > self.queue_bytes:
            stats.dropped_queue += 1
            return False
        now = self.scheduler.now
        start = max(now, self._tx_free_at)
        tx_time = 8 * wire_bytes / self.capacity_bps
        finish = start + tx_time
        self._tx_free_at = finish
        self._backlog_bytes += wire_bytes
        self.scheduler.schedule_at(finish, self._transmitted, dgram, self._epoch)
        return True

    def _transmitted(self, dgram: Datagram, epoch: int) -> None:
        self._backlog_bytes -= dgram.wire_bytes
        if epoch != self._epoch:
            self.stats.dropped_down += 1
            return
        if self.loss.drop(self._rng):
            self.stats.dropped_loss += 1
            return
        if not self.impairments:
            self._propagate(dgram, epoch)
            return
        delivered = [dgram]
        for impairment in self.impairments:
            survivors: list[Datagram] = []
            for d in delivered:
                survivors.extend(impairment.apply(d, self._rng, self.stats))
            delivered = survivors
            if not delivered:
                return
        for d in delivered:
            self._propagate(d, epoch)

    def _propagate(self, dgram: Datagram, epoch: int) -> None:
        delay = self.delay_s
        if self.jitter_s > 0:
            # Uniform one-sided jitter, drawn per delivered copy so
            # duplicates reorder against their originals; reordering
            # across packets is the point (the Fig. 5 buffer study
            # depends on it).
            delay += self.jitter_s * self._rng.random()
        self.scheduler.schedule(delay, self._arrive, dgram, epoch)

    def _arrive(self, dgram: Datagram, epoch: int) -> None:
        if epoch != self._epoch:
            self.stats.dropped_down += 1
            return
        self.stats.delivered_packets += 1
        self.stats.delivered_bytes += dgram.wire_bytes
        assert self._deliver is not None  # send() refuses unconnected links
        self._deliver(dgram)

    # -- introspection ---------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Link({self.src}->{self.dst}, {self.capacity_bps / 1e6:.1f} Mbps, "
            f"{self.delay_s * 1e3:.1f} ms, {self.loss!r})"
        )
