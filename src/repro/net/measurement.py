"""Measurement plane: the simulator's iperf3 and ping.

The paper installs iperf3 and ping on every coding VNF and periodically
ships (bandwidth, delay) samples to the controller, which drives the
dynamic scaling algorithms (§IV-B).  This module provides:

- :func:`path_rtt` / :func:`path_one_way_delay` — analytic delay of a
  path through a topology (propagation + per-hop serialization), the
  ground truth a ping would measure on an unloaded network.
- :class:`Pinger` — event-driven echo probe measuring live RTT samples
  including queueing.
- :class:`BandwidthProbe` — iperf3-style UDP burst measuring delivered
  rate over one link.
- :class:`MeasurementService` — the periodic sampler VNF daemons run;
  it reads link state (with optional observation noise) and invokes a
  controller callback, exactly the feed Alg. 1/2 consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.net.events import EventScheduler
from repro.net.node import Node
from repro.net.packet import Datagram
from repro.net.topology import Topology
from repro.util.rng import derive_rng

PING_PORT = 7  # echo, naturally
PING_PAYLOAD_BYTES = 1472  # fills a 1500-byte MTU with the UDP + IP headers


def path_one_way_delay(
    topology: Topology, path: Sequence[str], payload_bytes: int = PING_PAYLOAD_BYTES
) -> float:
    """Unloaded one-way delay along ``path`` (seconds).

    Sums propagation delay plus per-hop serialization of one packet of
    ``payload_bytes`` UDP payload.
    """
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    wire_bits = 8 * (payload_bytes + 28)  # UDP + IP headers
    total = 0.0
    for src, dst in zip(path, path[1:]):
        link = topology.link(src, dst)
        total += link.delay_s + wire_bits / link.capacity_bps
    return total


def path_rtt(topology: Topology, path: Sequence[str]) -> float:
    """Unloaded round-trip time out along ``path`` and back (seconds)."""
    back = list(reversed(path))
    return path_one_way_delay(topology, path) + path_one_way_delay(topology, back)


@dataclass
class RttSample:
    sent_at: float
    rtt_s: float


class Pinger:
    """Event-driven RTT probe between two directly reachable nodes.

    The responder side is installed with :meth:`install_responder`; it
    echoes probes back over its link to the prober.  Multi-hop paths are
    probed by installing forwarders (the experiment harness does this) or
    by using :func:`path_rtt` for unloaded figures.
    """

    def __init__(self, node: Node, peer: str) -> None:
        self.node = node
        self.peer = peer
        self.samples: list[RttSample] = []
        self._inflight: dict[int, float] = {}
        self._seq = 0
        node.listen(PING_PORT, self._on_reply)

    @staticmethod
    def install_responder(node: Node) -> None:
        """Make ``node`` echo ping probes back to their source."""

        def _echo(dgram: Datagram) -> None:
            seq, kind = dgram.payload
            if kind == "request":
                node.send(dgram.src, (seq, "reply"), dgram.payload_bytes, dst_port=PING_PORT)

        node.listen(PING_PORT, _echo)

    def probe(self) -> None:
        """Send one echo request."""
        self._seq += 1
        self._inflight[self._seq] = self.node.scheduler.now
        self.node.send(self.peer, (self._seq, "request"), PING_PAYLOAD_BYTES, dst_port=PING_PORT)

    def _on_reply(self, dgram: Datagram) -> None:
        seq, kind = dgram.payload
        if kind != "reply":
            return
        sent = self._inflight.pop(seq, None)
        if sent is not None:
            self.samples.append(RttSample(sent_at=sent, rtt_s=self.node.scheduler.now - sent))

    def stats_ms(self) -> dict[str, float]:
        """min/max/average RTT in milliseconds over collected samples."""
        if not self.samples:
            raise RuntimeError("no RTT samples collected yet")
        rtts = np.array([s.rtt_s for s in self.samples]) * 1e3
        return {"min": float(rtts.min()), "max": float(rtts.max()), "average": float(rtts.mean())}


class BandwidthProbe:
    """iperf3-style UDP burst: measure delivered rate over one link."""

    IPERF_PORT = 5201

    def __init__(self, sender: Node, receiver: Node, payload_bytes: int = 1460) -> None:
        self.sender = sender
        self.receiver = receiver
        self.payload_bytes = payload_bytes
        self.received_bytes = 0
        self._started_at: float | None = None
        self._finished_at: float | None = None
        receiver.listen(self.IPERF_PORT, self._on_data)

    def run(self, duration_s: float, offered_rate_bps: float) -> None:
        """Schedule a constant-rate burst for ``duration_s``."""
        if duration_s <= 0 or offered_rate_bps <= 0:
            raise ValueError("duration and rate must be positive")
        interval = 8 * (self.payload_bytes + 28) / offered_rate_bps
        count = int(duration_s / interval)
        self._started_at = self.sender.scheduler.now
        self._finished_at = self._started_at + duration_s
        for i in range(count):
            self.sender.scheduler.schedule(i * interval, self._send_one)

    def _send_one(self) -> None:
        self.sender.send(self.receiver.name, "iperf", self.payload_bytes, dst_port=self.IPERF_PORT)

    def _on_data(self, dgram: Datagram) -> None:
        self.received_bytes += dgram.payload_bytes

    def measured_bps(self) -> float:
        """Goodput observed at the receiver over the probe window."""
        if self._started_at is None:
            raise RuntimeError("probe has not been run")
        assert self._finished_at is not None
        elapsed = max(self.receiver.scheduler.now, self._finished_at) - self._started_at
        return 8 * self.received_bytes / elapsed


class MeasurementService:
    """Periodic (bandwidth, delay) sampler feeding the controller.

    Every ``interval_s`` the service reads each link's current capacity
    and delay, perturbs them with multiplicative observation noise, and
    calls ``report(now, link_key, bandwidth_mbps, delay_ms)``.  The
    paper's interval is 10 minutes.
    """

    def __init__(
        self,
        topology: Topology,
        report: Callable[[float, tuple[str, str], float, float], None],
        interval_s: float = 600.0,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.topology = topology
        self.report = report
        self.interval_s = interval_s
        self.noise_std = noise_std
        self._rng = rng if rng is not None else derive_rng("net.measurement")
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.topology.scheduler.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        self._running = False

    def sample_once(self) -> None:
        """Take one sample of every link right now."""
        now = self.topology.scheduler.now
        for key, link in self.topology.links.items():
            bw = link.capacity_bps / 1e6
            delay = link.delay_s * 1e3
            if self.noise_std > 0:
                bw *= max(0.0, 1.0 + self._rng.normal(0.0, self.noise_std))
                delay *= max(0.0, 1.0 + self._rng.normal(0.0, self.noise_std))
            self.report(now, key, bw, delay)

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_once()
        self.topology.scheduler.schedule(self.interval_s, self._tick)
