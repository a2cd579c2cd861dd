"""Self-healing MTTR: detection → LP replan → repair, per crash site.

Not a paper figure — the paper's control plane never plans for node
loss.  This benchmark measures the robustness layer grown on top of it:
for each single-relay crash on the failover butterfly it reports the
death-verdict latency (miss_threshold × heartbeat interval), the
recovery latency (first post-crash generation decoded at every
receiver), and their sum — the mean-time-to-repair the failure-matrix
tests pin.  The seeded chaos sweeps are ``python -m repro.soak session``
(Tier-1 ``tests/faults/test_chaos_soak.py``, the CI ``session`` soak cells).
"""

import pytest

from repro.experiments.failures import run_butterfly_failover

#: Every single-relay crash is survivable post-PR 3 — including O1,
#: which also carries O2's reverse NACK path.
CRASH_SITES = ("O1", "C1", "T", "V2")


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


@pytest.mark.benchmark(group="recovery")
def test_recovery_mttr_report(benchmark, table_printer):
    # Timing target: one full detect→replan→repair cycle on the
    # hardest crash site (O1 — data branch AND feedback path die).
    benchmark.pedantic(_crash_metrics, args=("O1",), rounds=1, iterations=1)
    scenarios = [_crash_metrics(node) for node in CRASH_SITES]
    rows = [
        [
            s["crash_site"],
            "yes" if s["recovered"] else "no",
            f"{s['detection_latency_s']:.3f}" if s["detection_latency_s"] is not None else "-",
            f"{s['recovery_latency_s']:.3f}" if s["recovery_latency_s"] is not None else "-",
            f"{s['mttr_s']:.3f}" if s["mttr_s"] is not None else "-",
        ]
        for s in scenarios
    ]
    table_printer(
        "Self-healing MTTR per crash site",
        ["crash", "recovered", "detect (s)", "repair (s)", "MTTR (s)"],
        rows,
    )
    for scenario in scenarios:
        assert scenario["detected"] and scenario["recovered"], scenario["crash_site"]
        assert scenario["feasible_replan"]
        assert scenario["mttr_s"] is not None and scenario["mttr_s"] < 1.5
        assert all(count > 0 for count in scenario["decoded_after"].values())

