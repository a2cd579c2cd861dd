"""Host-speed reference: a frozen miniature of what the program does.

The container this benchmark runs on shares its cores.  Measured over
hours, the same code ran up to 1.8 times slower for tens of seconds at a
time, with wall time equal to CPU time (so neither ``process_time`` nor
steal accounting sees it), and the quartile spread of raw throughput
over ten runs was 10-37 % of its median on every workload.  No bound a
regression gate can use survives that.

So every host time the benchmark reports is expressed in *reference
seconds*: the worker times this kernel before and after every timed
chunk and scales the chunk's wall time by ``QUIET_S / kernel time``
(set-up time by the one timing taken as soon as the workload is ready).
The kernel is a small discrete-event packet relay (a heap of events,
bound-method callbacks, per-generation dict state, table-gather and XOR
on 256-byte numpy arrays), i.e. the same instruction mix as the program,
so the host slows both alike; measured, it cuts the spread to 4-8 %.
It lives here, uses nothing from ``repro``, and must never change: a
change to it rescales every number the benchmark has ever reported.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Callable

import numpy as np

#: What the kernel takes on the baseline container when nothing else
#: runs; it only fixes the unit (a reference second is a second there).
QUIET_S = 0.0040

_REPEATS = 4
_PACKETS = 400

_ROW = (np.arange(256, dtype=np.uint16) * 29 % 251).astype(np.uint8)
_PAYLOAD = (np.arange(256, dtype=np.uint16) * 7 % 256).astype(np.uint8)


class _Hop:
    __slots__ = ("seen", "state", "next")

    def __init__(self, next_hop: "_Hop | None") -> None:
        self.seen = 0
        self.state: dict[int, int] = {}
        self.next = next_hop

    def on_packet(self, sim: "_Sim", now: float, payload: Any, generation: int) -> None:
        self.seen += 1
        count = self.state.get(generation, 0) + 1
        self.state[generation] = count
        mixed = _ROW.take(payload)
        np.bitwise_xor(mixed, payload, out=mixed)
        if self.next is not None:
            sim.schedule(now + 0.001 + (count & 3) * 1e-4, self.next.on_packet, mixed, generation)


class _Sim:
    __slots__ = ("heap", "seq", "processed")

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, Callable[..., None], Any, int]] = []
        self.seq = 0
        self.processed = 0

    def schedule(self, at: float, fn: Callable[..., None], payload: Any, generation: int) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, fn, payload, generation))

    def run(self) -> None:
        heap = self.heap
        while heap:
            at, _, fn, payload, generation = heapq.heappop(heap)
            self.processed += 1
            fn(self, at, payload, generation)


def _kernel() -> None:
    first = _Hop(_Hop(_Hop(_Hop(None))))
    sim = _Sim()
    for i in range(_PACKETS):
        sim.schedule(i * 1e-4, first.on_packet, _PAYLOAD, i >> 2)
    sim.run()


def kernel_seconds() -> float:
    """Median of a few back-to-back kernel runs (one unmeasured, to warm caches)."""
    _kernel()
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def speed_factor(before_s: float, after_s: float) -> float:
    """Reference seconds per wall second for work bracketed by two kernel timings."""
    return QUIET_S / ((before_s + after_s) / 2.0)
