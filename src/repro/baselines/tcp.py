"""TCP throughput models for the "Direct TCP" baseline (Fig. 7).

The paper's baseline is a plain TCP transfer over the direct
source→receiver Internet path.  Two models:

- :class:`MathisModel` — the classic steady-state bound
  ``rate = MSS / (RTT · sqrt(2p/3))``: instantaneous, used for
  flow-level comparisons and to sanity-check the simulator.
- :class:`TcpAimdSimulator` — a discrete-time AIMD (Reno-flavoured)
  congestion-window simulation producing a throughput *time series*
  with the familiar sawtooth, driven by a loss process; this is what
  the Fig. 7 bench plots.

Both deliberately stay at the fluid level: the paper's claim needs only
that TCP on a long-RTT lossy direct path is slower than coded relayed
transfer, not a full TCP stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng


@dataclass(frozen=True)
class MathisModel:
    """Steady-state TCP throughput bound (Mathis et al. 1997)."""

    mss_bytes: int = 1460

    def throughput_mbps(self, rtt_s: float, loss_rate: float, capacity_mbps: float | None = None) -> float:
        """Loss-limited rate, optionally clamped to path capacity."""
        if rtt_s <= 0:
            raise ValueError("RTT must be positive")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        if loss_rate == 0.0:
            rate = float("inf")
        else:
            rate = (self.mss_bytes * 8) / (rtt_s * math.sqrt(2.0 * loss_rate / 3.0)) / 1e6
        if capacity_mbps is not None:
            rate = min(rate, capacity_mbps)
        return rate


@dataclass
class TcpAimdSimulator:
    """Round-based AIMD congestion window over a lossy bottleneck.

    Each RTT the window grows by one MSS (congestion avoidance) or
    halves on loss; loss happens when a round experiences either random
    loss (per-packet probability ``loss_rate`` over the round's packets)
    or queue overflow (window beyond the bandwidth-delay product plus
    buffer).  Slow start is modelled until the first loss.
    """

    capacity_mbps: float
    rtt_s: float
    loss_rate: float = 0.0
    mss_bytes: int = 1460
    buffer_packets: int = 64

    def __post_init__(self):
        if self.capacity_mbps <= 0 or self.rtt_s <= 0:
            raise ValueError("capacity and RTT must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")

    @property
    def bdp_packets(self) -> float:
        return self.capacity_mbps * 1e6 * self.rtt_s / (8 * self.mss_bytes)

    def run(self, duration_s: float, rng: np.random.Generator) -> dict:
        """Simulate; returns {'times', 'throughput_mbps', 'mean_mbps'}."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rounds = max(1, int(duration_s / self.rtt_s))
        cwnd = 1.0
        ssthresh = float("inf")
        times = np.empty(rounds)
        rates = np.empty(rounds)
        limit = self.bdp_packets + self.buffer_packets
        for i in range(rounds):
            sent = cwnd
            delivered = min(sent, self.bdp_packets)  # bottleneck drain per RTT
            times[i] = (i + 1) * self.rtt_s
            rates[i] = delivered * self.mss_bytes * 8 / self.rtt_s / 1e6
            random_loss = self.loss_rate > 0 and rng.random() < 1.0 - (1.0 - self.loss_rate) ** max(1, int(sent))
            overflow = sent > limit
            if random_loss or overflow:
                ssthresh = max(2.0, cwnd / 2.0)
                cwnd = ssthresh
            elif cwnd < ssthresh:
                cwnd = min(cwnd * 2.0, ssthresh)  # slow start
            else:
                cwnd += 1.0  # congestion avoidance
        return {"times": times, "throughput_mbps": rates, "mean_mbps": float(rates.mean())}


def direct_tcp_throughput_mbps(
    capacity_mbps: float,
    rtt_s: float,
    loss_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean TCP throughput over 60 s of the direct path (AIMD sim, Mathis-clamped)."""
    rng = rng if rng is not None else derive_rng("baselines.tcp.direct")
    sim = TcpAimdSimulator(capacity_mbps=capacity_mbps, rtt_s=rtt_s, loss_rate=loss_rate)
    mean = sim.run(60.0, rng)["mean_mbps"]
    bound = MathisModel().throughput_mbps(rtt_s, loss_rate, capacity_mbps)
    return min(mean, bound)
