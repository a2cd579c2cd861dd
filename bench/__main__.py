"""``python -m bench``: run the benchmark, compare two results, or A/A the tree.

Three ways in:

- ``python -m bench [--workload W ...] [--repeats 3] [--scale 1.0] [--trace] [--aa] [--out F]``
  runs the chosen workloads as fixed work, prints every metric by name
  with its unit, checks the outputs and exits non-zero on any failed
  operation.  ``--aa`` runs the set twice and compares the two.
- ``python -m bench compare A.json B.json`` prints B's verdict against A
  for every (metric, workload) pair.
- ``python -m bench --workload W --seed N --seconds S --trace 0|1`` is
  the form ``BENCHMARK.json`` names: one workload for a host-time
  budget, one JSON object on the last line (end-to-end metrics without
  tracing, the per-layer ledger with it).

This process measures nothing itself.  It pins itself (and so its
children) to one CPU, caps numeric libraries at one thread, and runs
every measurement in a fresh ``python -m bench.worker`` child, strictly
one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any

from bench import report
from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh children whose set-up times are the sample behind one run's ``setup_s``.
SETUP_SAMPLES = 5
#: A child that has not finished by then is broken (the contract allows 180 s per run).
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _pin_to_one_cpu() -> list[int]:
    """Pin this process (children inherit) to the last CPU it may use."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


def _worker(*args: object) -> dict[str, Any]:
    """Run one worker child to completion; its JSON plus ``setup_s``."""
    command = [sys.executable, "-m", "bench.worker", *map(str, args)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(command)} did not finish in {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    result: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready_at" in result:
        # time.monotonic() is CLOCK_MONOTONIC on Linux: one clock for parent
        # and child.  Like every host time, in reference seconds.
        result["setup_s"] = (result["ready_at"] - spawned_at) * result["setup_speed_factor"]
    return result


def _measured_run(common: tuple[object, ...], *size: object) -> dict[str, Any]:
    """One untraced run; its ``setup_s`` is the median over fresh children."""
    run = _worker(*common, *size)
    setups = [run["setup_s"]]
    setups += [_worker(*common, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run["setup_s"] = statistics.median(setups)
    return run


def _is_contended(run: dict[str, Any]) -> bool:
    overloaded = max(run["loadavg"]) > (os.cpu_count() or 1) / 2
    return overloaded or run["wall_s"] / max(run["cpu_s"], 1e-9) > 1.25


# -- the BENCHMARK.json form --------------------------------------------------


def contract_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    common = ("--workload", workload, "--seed", seed)
    if trace:
        run = _worker(*common, "--seconds", seconds, "--trace", 1)
        measured = {**_worker("--probes", "--seed", seed)["per_layer"], **run["per_layer"]}
        values = {m.name: (measured.get(m.name, 0.0), m.unit) for m in PER_LAYER}
    else:
        run = _measured_run(common, "--seconds", seconds)
        measured = {**run["end_to_end"], "setup_s": run["setup_s"]}
        values = {m.name: (measured[m.name], m.unit) for m in END_TO_END}
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
            }
        )
    )
    return 0


# -- the full report -------------------------------------------------------------


def _environment(affinity: list[int]) -> dict[str, Any]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "affinity": affinity,
        "threads": {var: "1" for var in THREAD_VARS},
        "loadavg_start": os.getloadavg()[0],
    }


def run_set(
    workloads: list[str], seed: int, repeats: int, scale: float, trace: bool, affinity: list[int]
) -> dict[str, Any]:
    """Every chosen workload ``repeats`` times as fixed work, one child at a time."""
    document: dict[str, Any] = {
        "schema": 1,
        "config": {"seed": seed, "repeats": repeats, "scale": scale, "trace": trace},
        "env": _environment(affinity),
        "workloads": {},
    }
    for name in workloads:
        common = ("--workload", name, "--seed", seed)
        runs = []
        for repeat in range(repeats):
            print(f"[bench] {name}: repeat {repeat + 1}/{repeats}", file=sys.stderr, flush=True)
            runs.append(_measured_run(common, "--scale", scale))
        first = runs[0]
        end_to_end = [{**run["end_to_end"], "setup_s": run["setup_s"]} for run in runs]
        entry: dict[str, Any] = {
            "attempted": first["attempted"],
            "failed": max(run["failed"] for run in runs),
            "sim_fingerprint": first["sim_fingerprint"],
            "deterministic": all(run["sim_fingerprint"] == first["sim_fingerprint"] for run in runs),
            "contended": any(_is_contended(run) for run in runs),
            "end_to_end": {
                m.name: {"unit": m.unit, **report.summarize([values[m.name] for values in end_to_end])}
                for m in END_TO_END
            },
            "per_layer": dict(first["per_layer"]),
            "runs": [
                {key: run[key] for key in ("chunks", "wall_s", "cpu_s", "ref_s", "loadavg")} for run in runs
            ],
        }
        if trace:
            print(f"[bench] {name}: traced run", file=sys.stderr, flush=True)
            traced = _worker(*common, "--scale", scale, "--trace", 1)
            from_trace = (".self_share", ".overhead_ratio")
            entry["per_layer"].update(
                {key: value for key, value in traced["per_layer"].items() if key.endswith(from_trace)}
            )
            entry["trace_file"] = traced["trace_file"]
        document["workloads"][name] = entry
    if trace:
        print("[bench] probes", file=sys.stderr, flush=True)
        document["probes"] = _worker("--probes", "--seed", seed)["per_layer"]
    document["env"]["loadavg_end"] = os.getloadavg()[0]
    return document


def _passes(document: dict[str, Any]) -> bool:
    ok = True
    for name, entry in document["workloads"].items():
        if entry["failed"]:
            print(f"FAILED: {name}: {entry['failed']} of {entry['attempted']} operations failed")
            ok = False
        if not entry["deterministic"]:
            print(f"FAILED: {name}: repeats of one seed disagree on sim_fingerprint")
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        a = json.loads(args.a.read_text(encoding="utf-8"))
        b = json.loads(args.b.read_text(encoding="utf-8"))
        same_work = all(a["config"][key] == b["config"][key] for key in ("seed", "scale"))
        rows, ok = report.compare(a, b, exact=same_work)
        print("\n".join(rows))
        return 0 if ok else 1

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="repeatable")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies simulated duration / bytes")
    parser.add_argument("--seconds", type=float, default=None, help="host-time budget (BENCHMARK.json form)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--aa", action="store_true", help="run the set twice and compare")
    parser.add_argument("--out", type=Path, default=None, help="write the result document here")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.scale <= 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats, --scale and --seconds must be positive")

    affinity = _pin_to_one_cpu()
    try:
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1 or args.aa:
                parser.error("--seconds takes exactly one --workload and no --aa")
            return contract_run(args.workload[0], args.seed, args.seconds, args.trace)

        workloads = args.workload or list(WORKLOADS)
        document = run_set(workloads, args.seed, args.repeats, args.scale, bool(args.trace), affinity)
        report.print_result(document)
        ok = _passes(document)
        if args.aa:
            second = run_set(workloads, args.seed, args.repeats, args.scale, False, affinity)
            ok = _passes(second) and ok
            rows, agree = report.compare(document, second, exact=True, symmetric=True)
            print("\nA/A: two sets of runs of the same tree\n" + "\n".join(rows))
            ok = ok and agree
            document["aa_second"] = second
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print("\nbench: " + ("all outputs correct" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
