"""One measurement in a fresh interpreter: ``python -m bench.worker``.

The driver (``python -m bench``) starts one of these per run so that
set-up time and peak memory are per-run facts, not artefacts of what
ran before.  A worker prints exactly one JSON object on its last line.

Modes:

- default — build, warm up, run timed chunks, stop, drain, check;
- ``--setup-only`` — build and report when the workload was ready (the
  driver takes the median of several of these for ``setup_s``);
- ``--trace 1`` — an untraced reference run on 30 % of the budget, then
  the same workload again with :mod:`bench.trace` installed; reports
  per-layer self-time shares and the tracing overhead, and writes
  ``bench/out/trace_<workload>.json``;
- ``--probes`` — the isolated layer probes of :mod:`bench.probes`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from bench.calibrate import QUIET_S, kernel_seconds, speed_factor
from bench.metrics import WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Share of a traced run's budget spent on its untraced reference.
REFERENCE_SHARE = 0.3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _measure(
    name: str,
    seed: int,
    *,
    scale: float,
    seconds: float | None,
    budget_share: float = 1.0,
    tracer: Any = None,
    setup_only: bool = False,
) -> dict[str, Any]:
    """Run one workload; ``seconds`` (host-time budget) wins over ``scale``.

    Host times come back in reference seconds (:mod:`bench.calibrate`):
    the kernel is timed between chunks and each chunk's wall time scaled
    by the speed of the host around it; the driver scales set-up time by
    the kernel timing taken as soon as the workload is ready.
    """
    from bench.workloads import Stopwatch, make

    watch = Stopwatch(tracer)
    workload = make(name, seed, scale, watch)
    workload.setup()
    ready_at = time.monotonic()
    setup_speed_factor = QUIET_S / kernel_seconds()
    if setup_only:
        return {"ready_at": ready_at, "setup_speed_factor": setup_speed_factor}

    workload.warmup()
    gc.collect()
    fixed_chunks = max(1, round(workload.default_chunks * scale * budget_share))
    budget_s = None if seconds is None else seconds * budget_share
    chunk_ref_s: list[float] = []  # each chunk's timed wall, in reference seconds
    op_ref_us: list[float] = []  # per-operation reference microseconds

    def more_to_do() -> bool:
        if budget_s is None:
            return len(chunk_ref_s) < fixed_chunks
        return watch.wall_s < budget_s

    # Memory grows with the work done, and a time budget fits more work on
    # a fast day: read the peak after a fixed number of chunks instead.
    rss_after_chunks = max(1, round(workload.default_chunks * scale / 3))
    peak_rss_mb = 0.0
    kernel_before = kernel_seconds()
    while more_to_do():
        wall0, ops0, samples0 = watch.wall_s, workload.ops, len(workload.op_wall_us)
        workload.step()
        kernel_after = kernel_seconds()
        factor = speed_factor(kernel_before, kernel_after)
        kernel_before = kernel_after
        chunk_ref_s.append((watch.wall_s - wall0) * factor)
        if len(chunk_ref_s) == rss_after_chunks:
            peak_rss_mb = _peak_rss_mb()
        if len(workload.op_wall_us) > samples0:
            op_ref_us.extend(us * factor for us in workload.op_wall_us[samples0:])
        elif workload.ops > ops0:
            op_ref_us.append(chunk_ref_s[-1] * 1e6 / (workload.ops - ops0))
    outcome = workload.finish()

    ref_s = sum(chunk_ref_s)
    per_layer = {key: float(value) for key, value in outcome.ledger.items()}
    if outcome.events_timed:
        per_layer["net.events.host_us_per_event"] = ref_s * 1e6 / outcome.events_timed
    if workload.op_wall_us:
        per_layer["shard.join_host_us_p99"] = statistics.quantiles(op_ref_us, n=100)[98]
    return {
        "ready_at": ready_at,
        "setup_speed_factor": setup_speed_factor,
        "chunks": len(chunk_ref_s),
        "chunk_ref_s": chunk_ref_s,
        "wall_s": watch.wall_s,
        "cpu_s": watch.cpu_s,
        "ref_s": ref_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "sim_fingerprint": outcome.fingerprint(),
        "end_to_end": {
            "ops_per_s": workload.ops / ref_s,
            "op_host_us_p50": statistics.median(op_ref_us) if op_ref_us else 0.0,
            "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
            "delivered_ratio": outcome.delivered_ratio,
        },
        "per_layer": per_layer,
    }


def _traced(name: str, seed: int, *, scale: float, seconds: float | None) -> dict[str, Any]:
    """Untraced reference, then the traced run; shares and overhead from both."""
    from bench.trace import Tracer

    reference = _measure(name, seed, scale=scale, seconds=seconds, budget_share=REFERENCE_SHARE)
    tracer = Tracer()
    tracer.install()
    try:
        result = _measure(
            name, seed, scale=scale, seconds=seconds, budget_share=1.0 - REFERENCE_SHARE, tracer=tracer
        )
    finally:
        tracer.uninstall()
    for layer, share in tracer.self_shares(result["wall_s"]).items():  # a ratio: wall over wall
        result["per_layer"][f"{layer}.self_share"] = share
    # Same seed, so chunk i is the same work in both runs: compare the
    # chunks both completed.
    shared = min(reference["chunks"], result["chunks"])
    result["per_layer"]["trace.overhead_ratio"] = sum(result["chunk_ref_s"][:shared]) / sum(
        reference["chunk_ref_s"][:shared]
    )
    path = OUT_DIR / f"trace_{name}.json"
    tracer.dump(path, {"workload": name, "seed": seed, "traced_wall_s": result["wall_s"]})
    result["trace_file"] = str(path)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    if not args.probes and args.workload is None:
        parser.error("--workload is required unless --probes is given")

    load_start = os.getloadavg()[0]
    if args.probes:
        from bench.probes import run_all

        result: dict[str, Any] = {"per_layer": run_all(args.seed)}
    elif args.trace:
        result = _traced(args.workload, args.seed, scale=args.scale, seconds=args.seconds)
    else:
        result = _measure(
            args.workload, args.seed, scale=args.scale, seconds=args.seconds, setup_only=args.setup_only
        )
    result["loadavg"] = [load_start, os.getloadavg()[0]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
