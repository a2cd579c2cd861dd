"""Self-healing MTTR: detection → LP replan → repair, per crash site.

Not a paper figure — the paper's control plane never plans for node
loss.  This benchmark measures the robustness layer grown on top of it:
for each single-relay crash on the failover butterfly it reports the
death-verdict latency (miss_threshold × heartbeat interval), the
recovery latency (first post-crash generation decoded at every
receiver), and their sum — the mean-time-to-repair the failure-matrix
tests pin.  A short replay-verified chaos digest rides along.

The run also emits ``BENCH_recovery.json`` in the working directory
(the CI benchmark step archives it), so MTTR regressions show up as an
artifact diff even when no assertion moves.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import run_chaos_session
from repro.experiments.failures import run_butterfly_failover
from repro.soak import COMPLETE, TYPED, run_soak, summarize

#: Every single-relay crash is survivable post-PR 3 — including O1,
#: which also carries O2's reverse NACK path.
CRASH_SITES = ("O1", "C1", "T", "V2")

CHAOS_SEEDS = range(8)  # a digest, not the full 50-seed tier-1 soak


def _crash_metrics(node: str) -> dict:
    result = run_butterfly_failover(fail_node=node, duration_s=3.0, relay_repair=True)
    detection = result.detection_latency_s
    recovery = result.recovery_latency_s
    return {
        "crash_site": node,
        "detected": result.detected_at is not None,
        "recovered": result.recovered,
        "detection_latency_s": detection,
        "recovery_latency_s": recovery,
        "mttr_s": (detection + recovery) if detection is not None and recovery is not None else None,
        "decoded_after": dict(result.decoded_after),
        "feasible_replan": bool(result.recovery_plans and result.recovery_plans[0].feasible),
    }


@pytest.fixture(scope="module")
def recovery_report():
    scenarios = [_crash_metrics(node) for node in CRASH_SITES]
    # Per-seed detail stays in the soak CLI's own JSON.
    digest = summarize(run_soak(run_chaos_session, CHAOS_SEEDS, replay=True))
    report = {"scenarios": scenarios, "chaos_digest": digest}
    Path("BENCH_recovery.json").write_text(json.dumps(report, indent=2))
    return report


@pytest.mark.benchmark(group="recovery")
def test_recovery_mttr_report(benchmark, recovery_report, table_printer):
    # Timing target: one full detect→replan→repair cycle on the
    # hardest crash site (O1 — data branch AND feedback path die).
    benchmark.pedantic(_crash_metrics, args=("O1",), rounds=1, iterations=1)
    rows = [
        [
            s["crash_site"],
            "yes" if s["recovered"] else "no",
            f"{s['detection_latency_s']:.3f}" if s["detection_latency_s"] is not None else "-",
            f"{s['recovery_latency_s']:.3f}" if s["recovery_latency_s"] is not None else "-",
            f"{s['mttr_s']:.3f}" if s["mttr_s"] is not None else "-",
        ]
        for s in recovery_report["scenarios"]
    ]
    table_printer(
        "Self-healing MTTR per crash site",
        ["crash", "recovered", "detect (s)", "repair (s)", "MTTR (s)"],
        rows,
    )
    for scenario in recovery_report["scenarios"]:
        assert scenario["detected"] and scenario["recovered"], scenario["crash_site"]
        assert scenario["feasible_replan"]
        assert scenario["mttr_s"] is not None and scenario["mttr_s"] < 1.5
        assert all(count > 0 for count in scenario["decoded_after"].values())


def test_chaos_digest_is_clean(recovery_report):
    digest = recovery_report["chaos_digest"]
    assert digest["seeds"] == len(CHAOS_SEEDS)
    assert not digest["violations"]
    assert digest[COMPLETE] + digest[TYPED] == digest["seeds"]


def test_json_artifact_written(recovery_report):
    payload = json.loads(Path("BENCH_recovery.json").read_text())
    assert {s["crash_site"] for s in payload["scenarios"]} == set(CRASH_SITES)
    assert payload["chaos_digest"]["seeds"] == len(CHAOS_SEEDS)
