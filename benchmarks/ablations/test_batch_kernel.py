"""Ablation — one batched GF kernel call vs one call per packet.

The fast path codes a burst with one table-driven ``matmul`` where the
oracle path runs one log/exp ``linear_combination`` per packet
(DESIGN.md §10).  At the paper's generation shape — 4 blocks of 1460
bytes, a 64-packet burst — the batch must stay at least 3x ahead.  It is
a ratio of two kernels timed on the same host in the same process, so it
holds on any machine; the absolute costs are ``bench`` rows
(``gf.matmul_ns_per_pkt.k4``, ``gf.linear_combination_ns.k4``).
"""

import timeit

import numpy as np
import pytest

from repro.gf import GF256

BLOCKS = 4          # the paper's blocks per generation
BLOCK_BYTES = 1460  # MTU-filling block size
BURST = 64          # packets per batched kernel call
MIN_SPEEDUP = 3.0


def _best_of(fn):
    """Seconds per call, best of nine (``timeit`` pauses the GC): at
    microsecond scales minima are stable where medians are not."""
    fn()  # warm the MUL table and numpy buffers
    return min(timeit.repeat(fn, number=1, repeat=9))


def _run():
    rng = np.random.default_rng(20250807)
    blocks = GF256.random_elements(rng, (BLOCKS, BLOCK_BYTES))
    coeffs = GF256.random_nonzero(rng, (BURST, BLOCKS))
    per_packet_s = _best_of(lambda: [GF256.linear_combination(coeffs[i], blocks) for i in range(BURST)])
    batch_s = _best_of(lambda: GF256.matmul(coeffs, blocks))
    return {
        "per_packet_ns": per_packet_s / BURST * 1e9,
        "batched_ns": batch_s / BURST * 1e9,
        "speedup": per_packet_s / batch_s,
    }


@pytest.mark.benchmark(group="ablation-batch-kernel")
def test_batched_matmul_beats_per_packet_combination(benchmark, table_printer):
    r = benchmark.pedantic(_run, rounds=1, iterations=1)
    table_printer(
        f"Ablation: batched GF kernel ({BLOCKS}x{BLOCK_BYTES}, burst={BURST})",
        ["kernel", "ns / packet"],
        [
            ["linear_combination, per packet", f"{r['per_packet_ns']:,.0f}"],
            ["matmul, one call per burst", f"{r['batched_ns']:,.0f}"],
            ["speedup", f"{r['speedup']:.1f}x"],
        ],
    )
    assert r["speedup"] >= MIN_SPEEDUP, r
