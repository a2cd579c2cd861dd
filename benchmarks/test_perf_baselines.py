"""Perf-regression harness: kernel, codec, scheduler and e2e baselines.

Unlike the pytest-benchmark microbenchmarks (which time but never
gate), this file *asserts*: every metric is compared against the
committed baselines in ``BENCH_codec.json`` and ``BENCH_e2e.json`` and
the run fails when a time-per-op regresses beyond a generous tolerance
(default 3x, ``PERF_TOLERANCE`` overrides — CI uses a wider factor
because hosted runners vary in single-core speed).  After the
comparison the two JSON files are rewritten with the fresh numbers so
the CI artifact always shows what this commit measured.

Timing is hand-rolled ``perf_counter`` best-of-N with the garbage
collector paused — medians of medians are too noisy to gate on at these
microsecond scales, minima are stable.

The headline ratio — batched ``matmul`` vs per-packet
``linear_combination`` at the paper's 4x1460 generation shape — is also
asserted absolutely (>= 3x), since the table-driven batch kernels are
the point of the fast path (measured ~9x on the reference machine; see
DESIGN.md §10).
"""

import gc
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.butterfly import run_butterfly_nc
from repro.gf import GF256
from repro.net.events import EventScheduler
from repro.rlnc import CodedPacket, Decoder, Encoder, Generation, Recoder

BLOCKS = 4          # the paper's blocks per generation
BLOCK_BYTES = 1460  # MTU-filling block size
BURST = 64          # packets per batched kernel call

CODEC_BENCH = Path("BENCH_codec.json")
E2E_BENCH = Path("BENCH_e2e.json")

#: Regression tolerance: fail when time-per-op exceeds baseline * TOLERANCE
#: (or a rate metric falls below baseline / TOLERANCE).
TOLERANCE = float(os.environ.get("PERF_TOLERANCE", "3.0"))


def _best_of(fn, repeats: int = 7, number: int = 1) -> float:
    """Seconds per call, best of ``repeats`` timed batches, GC paused."""
    fn()  # warm caches (MUL table, struct cache, numpy buffers)
    best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(number):
                fn()
            elapsed = (time.perf_counter() - start) / number
            best = min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def _check_against_baseline(path: Path, metrics: dict) -> list:
    """Compare ``metrics`` with the committed baseline file.

    Returns a list of regression messages (empty = within tolerance).
    ``*_ns`` and ``*_ns_per_*`` metrics are lower-is-better, ``*_per_s``
    higher-is-better; ratios and counts are informational only.
    """
    if not path.exists():
        return []
    baseline = json.loads(path.read_text()).get("metrics", {})
    problems = []
    for name, value in metrics.items():
        base = baseline.get(name)
        if base is None or not base:
            continue
        if (name.endswith("_ns") or "_ns_per_" in name) and value > base * TOLERANCE:
            problems.append(f"{name}: {value:.0f} ns vs baseline {base:.0f} ns (> {TOLERANCE}x)")
        elif name.endswith("_per_s") and value < base / TOLERANCE:
            problems.append(f"{name}: {value:.0f}/s vs baseline {base:.0f}/s (< 1/{TOLERANCE}x)")
    return problems


def _write_bench(path: Path, metrics: dict, config: dict) -> None:
    path.write_text(json.dumps({"config": config, "metrics": metrics}, indent=2) + "\n")


def _relay_ns_per_packet(blocks: int, block_bytes: int) -> float:
    """One relay arrival: ``Recoder.add`` (duplicate verdict included)
    then ``recode`` — k + 2 distinct packets and one wire duplicate."""
    rng = np.random.default_rng(20250928)
    generation = Generation(0, rng.integers(0, 256, (blocks, block_bytes), dtype=np.uint8))
    feed = Encoder(1, generation, rng=rng).next_packets(blocks + 2)
    feed.insert(2, feed[1])

    def _relay_generation():
        recoder = Recoder(1, 0, blocks, rng=rng)
        for packet in feed:
            if recoder.add(packet):
                recoder.recode()
        assert recoder.buffered == blocks + 2

    return _best_of(_relay_generation, repeats=9, number=20) / len(feed) * 1e9


@pytest.fixture(scope="module")
def codec_metrics(request):
    rng = np.random.default_rng(20250807)
    blocks = GF256.random_elements(rng, (BLOCKS, BLOCK_BYTES))
    coeffs = GF256.random_nonzero(rng, (BURST, BLOCKS))

    # Kernel: one packet at a time (log/exp oracle) vs one batched matmul.
    per_packet_s = _best_of(
        lambda: [GF256.linear_combination(coeffs[i], blocks) for i in range(BURST)], repeats=9
    )
    batch_s = _best_of(lambda: GF256.matmul(coeffs, blocks), repeats=9)

    generation = Generation(0, np.asarray(blocks, dtype=np.uint8))
    encoder = Encoder(1, generation, systematic=False, rng=np.random.default_rng(1))
    encode_burst_s = _best_of(lambda: encoder.coded_packets(BURST), repeats=9)

    packets = encoder.coded_packets(8)
    wire = packets[0].encode()
    wire_s = _best_of(lambda: CodedPacket.decode(packets[0].encode()), repeats=9, number=100)

    def _decode_generation():
        decoder = Decoder(1, 0, BLOCKS, BLOCK_BYTES)
        for p in packets:
            if decoder.complete:
                break
            decoder.add(p)
        return decoder.decode()

    assert _decode_generation() == generation
    decode_s = _best_of(_decode_generation, repeats=9)

    return {
        "linear_combination_ns_per_packet": per_packet_s / BURST * 1e9,
        "matmul_ns_per_packet": batch_s / BURST * 1e9,
        "batch_speedup": per_packet_s / batch_s,
        "encoder_burst_ns_per_packet": encode_burst_s / BURST * 1e9,
        "wire_roundtrip_ns": wire_s * 1e9,
        "decode_generation_ns": decode_s * 1e9,
        "relay_add_recode_ns_per_packet_4x1460": _relay_ns_per_packet(BLOCKS, BLOCK_BYTES),
        "relay_add_recode_ns_per_packet_16x256": _relay_ns_per_packet(16, 256),
        "wire_bytes": len(wire),
    }


@pytest.fixture(scope="module")
def e2e_metrics():
    # Scheduler throughput: schedule 10k staggered no-op events, cancel
    # a third (exercising the O(1) pending bookkeeping), drain the rest.
    n_events = 10_000

    def _scheduler_run():
        scheduler = EventScheduler()
        events = [scheduler.schedule(i * 1e-6, lambda: None) for i in range(n_events)]
        for event in events[::3]:
            event.cancel()
        scheduler.run()

    scheduler_s = _best_of(_scheduler_run, repeats=5)

    # End-to-end: one clean butterfly run at the paper's parameters.
    gc.collect()
    start = time.perf_counter()
    result = run_butterfly_nc(duration_s=1.0, warmup_s=0.25)
    wall_s = time.perf_counter() - start
    source_packets = result.sent_generations * BLOCKS
    assert result.session_throughput_mbps > 0.0

    return {
        "scheduler_events_per_s": n_events / scheduler_s,
        "butterfly_wall_s": wall_s,
        "butterfly_source_packets_per_s": source_packets / wall_s,
        "butterfly_sent_generations": result.sent_generations,
        "butterfly_session_throughput_mbps": result.session_throughput_mbps,
    }


def test_codec_perf_baselines(codec_metrics, table_printer):
    table_printer(
        "Codec kernel baselines (4x1460, burst=64)",
        ["metric", "value"],
        [[k, f"{v:,.1f}"] for k, v in codec_metrics.items()],
    )
    # The point of the table-driven fast path: batched matmul must stay
    # well ahead of per-packet log/exp linear_combination.
    assert codec_metrics["batch_speedup"] >= 3.0, codec_metrics
    problems = _check_against_baseline(CODEC_BENCH, codec_metrics)
    _write_bench(
        CODEC_BENCH,
        codec_metrics,
        {"blocks": BLOCKS, "block_bytes": BLOCK_BYTES, "burst": BURST, "tolerance": TOLERANCE},
    )
    assert not problems, "codec perf regressions: " + "; ".join(problems)


def test_e2e_perf_baselines(e2e_metrics, table_printer):
    table_printer(
        "End-to-end baselines",
        ["metric", "value"],
        [[k, f"{v:,.1f}"] for k, v in e2e_metrics.items()],
    )
    assert e2e_metrics["scheduler_events_per_s"] > 0
    problems = _check_against_baseline(E2E_BENCH, e2e_metrics)
    _write_bench(
        E2E_BENCH,
        e2e_metrics,
        {"events": 10_000, "butterfly_duration_s": 1.0, "tolerance": TOLERANCE},
    )
    assert not problems, "e2e perf regressions: " + "; ".join(problems)
