"""The benchmark's own tests: ``PYTHONPATH=src python -m pytest bench/tests``.

Outside Tier-1's ``testpaths`` on purpose: they run every workload (at
``--scale 0.05``) and spawn the real command, which takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import report, worker
from bench.metrics import END_TO_END, PER_LAYER, SHARE_LAYERS, WORKLOADS
from bench.trace import LAYERS, Tracer
from bench.workloads import CodecStream, Stopwatch, mismatched_generations

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.05


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    # No inherited PYTHONPATH: the command must find the program by itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


# -- the manifest and the vocabulary -----------------------------------------


def test_benchmark_json_is_the_registry() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["workloads"] == [{"name": name, "why": why} for name, why in WORKLOADS.items()]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert manifest["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_names_units_and_limits() -> None:
    names = [*WORKLOADS, *(m.name for m in END_TO_END), *(m.name for m in PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit) for m in (*END_TO_END, *PER_LAYER))
    assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())
    assert 2 <= len(WORKLOADS) <= 8 and len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in END_TO_END)
    assert setup.bound == max(m.bound for m in END_TO_END)
    # Every layer the tracer can attribute time to has a self_share row.
    assert {layer for _, layer in LAYERS} <= set(SHARE_LAYERS)


# -- every workload, small ------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_checks_and_repeats(name: str) -> None:
    first = worker._measure(name, 7, scale=SCALE, seconds=None)
    assert first["attempted"] >= 1 and first["failed"] == 0
    assert set(first["end_to_end"]) == {m.name for m in END_TO_END} - {"setup_s"}
    assert all(value > 0 for value in first["end_to_end"].values())
    assert set(first["per_layer"]) <= {m.name for m in PER_LAYER}

    again = worker._measure(name, 7, scale=SCALE, seconds=None)
    assert again["sim_fingerprint"] == first["sim_fingerprint"]
    assert again["per_layer"].keys() == first["per_layer"].keys()
    exact = {m.name for m in PER_LAYER if m.exact}
    assert all(again["per_layer"][k] == first["per_layer"][k] for k in first["per_layer"] if k in exact)

    other_seed = worker._measure(name, 8, scale=SCALE, seconds=None)
    assert other_seed["sim_fingerprint"] != first["sim_fingerprint"]


def test_time_budget_mode_keeps_running_chunks() -> None:
    run = worker._measure("codec-stream", 7, scale=1.0, seconds=0.5)
    assert run["wall_s"] >= 0.5 and run["chunks"] >= 2 and run["failed"] == 0


# -- the correctness gate ---------------------------------------------------------


def test_checker_counts_a_flipped_byte_as_one_failed_generation() -> None:
    message = bytes(range(256)) * 100
    assert mismatched_generations(message, message, 5840) == 0
    tampered = bytearray(message)
    tampered[6000] ^= 0x01
    assert mismatched_generations(message, bytes(tampered), 5840) == 1
    assert mismatched_generations(message, message[:-1], 5840) == 5  # wrong length: nothing is trusted


def test_tampered_decode_is_reported_as_a_failed_operation() -> None:
    class Tampering(CodecStream):
        def _pipeline(self, message: bytes) -> bytes:
            output = bytearray(super()._pipeline(message))
            output[len(output) // 2] ^= 0x80
            return bytes(output)

    workload = Tampering(7, 1.0, Stopwatch())
    workload.setup()
    workload.step()
    outcome = workload.finish()
    assert outcome.failed == 1
    assert outcome.delivered_ratio < 1.0
    assert workload.ops == CodecStream.BLOCKS * (outcome.attempted - 1)


# -- the tracer ----------------------------------------------------------------------


def _spin(n: int = 20_000) -> int:
    return sum(i * i for i in range(n))


def test_self_times_partition_the_traced_time() -> None:
    tracer = Tracer()
    tracer.recording = True

    def outer() -> None:
        _spin()
        tracer.call("inner", _spin)
        tracer.call("inner", _spin)

    tracer.call("outer", outer)
    count, total, self_s = tracer.layers["outer"]
    assert count == 1 and tracer.layers["inner"][0] == 2
    assert self_s + tracer.layers["inner"][2] == pytest.approx(total)
    assert tracer.edges[("outer", "inner")][0] == 2
    shares = tracer.self_shares(total)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert [span[0] for span in tracer.raw] == ["outer", "inner", "inner"]
    assert tracer.raw[1][3] == 0  # parent index of the first inner span


def test_install_wraps_boundaries_and_uninstall_restores_them() -> None:
    from repro.net.events import EventScheduler
    from repro.rlnc.packet import CodedPacket

    originals = (EventScheduler.schedule, EventScheduler.run, CodedPacket.__dict__["decode"])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.1, fired.append, 1)
        scheduler.schedule_every(0.05, fired.append, 2)
        scheduler.run(until=0.12)
    finally:
        tracer.uninstall()
    assert fired == [2, 1, 2]
    assert tracer.layers["net.events"][0] >= 3  # run + schedules
    assert (EventScheduler.schedule, EventScheduler.run, CodedPacket.__dict__["decode"]) == originals


def test_traced_run_shares_sum_to_one_and_writes_the_trace() -> None:
    traced = worker._traced("butterfly-clean", 7, scale=SCALE, seconds=None)
    shares = {k: v for k, v in traced["per_layer"].items() if k.endswith(".self_share")}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert shares["core.vnf.self_share"] > 0 and shares["net.events.self_share"] > 0
    assert traced["per_layer"]["trace.overhead_ratio"] > 0
    document = json.loads(Path(traced["trace_file"]).read_text(encoding="utf-8"))
    assert document["workload"] == "butterfly-clean" and document["raw_spans"]
    assert traced["failed"] == 0


# -- compare / A-A verdicts -----------------------------------------------------------


def _document(ops: list[float], fingerprint: str = "f" * 64) -> dict:
    entry = {
        "attempted": 10,
        "failed": 0,
        "sim_fingerprint": fingerprint,
        "per_layer": {"net.events.processed": 100.0},
        "end_to_end": {m.name: report.summarize([1.0, 1.0, 1.0]) for m in END_TO_END},
    }
    entry["end_to_end"]["ops_per_s"] = report.summarize(ops)
    return {"workloads": {"codec-stream": entry}}


def _ops_verdict(rows: list[str]) -> str:
    return next(row for row in rows if " ops_per_s " in row).split()[-1]


def test_compare_verdicts() -> None:
    bound = next(m.bound for m in END_TO_END if m.name == "ops_per_s")
    assert bound is not None

    def around(center: float) -> list[float]:
        return [center - 1.0, center, center + 1.0]

    base = _document(around(100.0))
    rows, ok = report.compare(base, _document(around(100.5)), exact=True)
    assert ok and _ops_verdict(rows) == report.UNCHANGED
    better = around(100.0 * (1 + bound + 0.1))
    rows, ok = report.compare(base, _document(better), exact=True)
    assert ok and _ops_verdict(rows) == report.IMPROVED
    rows, ok = report.compare(base, _document(around(100.0 * (1 - bound - 0.1))), exact=True)
    assert not ok and _ops_verdict(rows) == report.REGRESSED
    noisy = [100.0 * (1 - 2 * bound), 100.0, 100.0 * (1 + 2 * bound)]
    rows, ok = report.compare(base, _document(noisy), exact=True)
    assert ok and _ops_verdict(rows) == report.UNRESOLVED
    # A/A: a jump in either direction is a disagreement.
    assert not report.compare(base, _document(better), exact=True, symmetric=True)[1]


def test_compare_flags_any_simulated_difference() -> None:
    base = _document([100.0, 101.0, 102.0])
    rows, ok = report.compare(base, _document([100.0, 101.0, 102.0], fingerprint="e" * 64), exact=True)
    assert not ok and any(row.endswith(report.DIFFERS) for row in rows)
    assert report.compare(base, _document([100.0, 101.0, 102.0], fingerprint="e" * 64), exact=False)[1]


# -- the command BENCHMARK.json names -----------------------------------------------


def test_contract_command_prints_every_metric() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["command"][0] == "python3" and manifest["command"][1:] == ["-m", "bench"]
    for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
        proc = _bench("--workload", "codec-stream", "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m.name for m in metrics]
        assert all(result["metrics"][m.name]["unit"] == m.unit for m in metrics)
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program_under_test(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "codec-stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
