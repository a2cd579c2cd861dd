"""Shard failover MTTR: primary crash → lease takeover → config re-push.

Not a paper figure — the paper's controller is a single process.  This
benchmark measures the sharded control plane grown in DESIGN.md §14:
for a sweep of crash phases inside the heartbeat cycle (worst-case
detection alignment) it reports the takeover MTTR — crash to
adopted-state-re-pushed — and gates it at twice the PR 3 single-relay
recovery envelope (~0.88 s), so failover between controller replicas
never costs more than double an in-shard relay repair.

The run also emits ``BENCH_shard.json`` in the working directory (the
CI shard job archives it) with the MTTR sweep and a replay-verified
controller-crash chaos digest, so takeover regressions show up as an
artifact diff even when no assertion moves.
"""

import json
from pathlib import Path

import pytest

from repro.fleet.churn import SessionSpec
from repro.fleet.manager import fleet_of
from repro.net.events import EventScheduler
from repro.shard.controller import HEARTBEAT_INTERVAL_S, MISS_THRESHOLD, ShardController
from repro.shard.soak import run_shard_soak
from repro.soak import COMPLETE, TYPED, run_soak, summarize

#: 2x the PR 3 relay-crash recovery envelope (BENCH_recovery: ~0.88 s).
MTTR_GATE_S = 1.76

#: Crash offsets inside one heartbeat cycle: just-after-a-beat is the
#: worst case (a full interval elapses before the silence even starts).
CRASH_PHASES = (0.0, 0.05, 0.1, 0.15, 0.199)

SOAK_SEEDS = 6  # a digest; the CI soak matrix runs the 20-seed CLI


def _takeover_mttr(phase_s: float) -> dict:
    scheduler = EventScheduler()
    shard = ShardController(
        "Chicago", fleet_of(("Chicago", "Denver", "Kansas City")), scheduler
    )
    verdict = shard.try_admit(
        SessionSpec(
            session_id=1,
            source_city="Chicago",
            receiver_cities=("Denver", "Kansas City"),
            rate_mbps=10.0,
        )
    )
    assert verdict is not None and verdict.admitted
    crash_at = 1.0 + phase_s  # beats land on the 0.2 s grid; 1.0 is one
    scheduler.schedule_at(crash_at, shard.replicas[0].crash)
    scheduler.run(until=crash_at + 10.0)
    shard.stop()
    (takeover,) = shard.takeovers
    assert takeover.mttr_s is not None
    return {
        "crash_phase_s": phase_s,
        "crashed_at_s": takeover.crashed_at,
        "detected_at_s": takeover.detected_at,
        "completed_at_s": takeover.completed_at,
        "mttr_s": takeover.mttr_s,
        "fence": takeover.fence,
        "pops_repushed": takeover.pops_repushed,
        "sessions_preserved": shard.manager.active_sessions,
    }


@pytest.fixture(scope="module")
def failover_report():
    sweep = [_takeover_mttr(phase) for phase in CRASH_PHASES]
    digest = summarize(run_soak(run_shard_soak, range(SOAK_SEEDS), replay=True))
    report = {
        "heartbeat_interval_s": HEARTBEAT_INTERVAL_S,
        "miss_threshold": MISS_THRESHOLD,
        "mttr_gate_s": MTTR_GATE_S,
        "mttr_worst_s": max(s["mttr_s"] for s in sweep),
        "sweep": sweep,
        "chaos_digest": digest,
    }
    Path("BENCH_shard.json").write_text(json.dumps(report, indent=2))
    return report


@pytest.mark.benchmark(group="shard")
def test_shard_failover_mttr_report(benchmark, failover_report, table_printer):
    # Timing target: one full crash→detect→adopt→re-push cycle at the
    # worst-case phase (crash right after a heartbeat lands).
    benchmark.pedantic(_takeover_mttr, args=(0.0,), rounds=1, iterations=1)
    rows = [
        [
            f"{s['crash_phase_s']:.3f}",
            f"{s['detected_at_s'] - s['crashed_at_s']:.3f}",
            f"{s['mttr_s']:.3f}",
            s["fence"],
            s["pops_repushed"],
            s["sessions_preserved"],
        ]
        for s in failover_report["sweep"]
    ]
    table_printer(
        "Shard takeover MTTR per crash phase",
        ["phase (s)", "detect (s)", "MTTR (s)", "fence", "PoPs", "sessions"],
        rows,
    )
    for scenario in failover_report["sweep"]:
        assert scenario["fence"] == 2
        assert scenario["pops_repushed"] > 0
        assert scenario["sessions_preserved"] == 1  # no admitted state lost
        assert scenario["mttr_s"] <= MTTR_GATE_S
    assert failover_report["mttr_worst_s"] <= MTTR_GATE_S


def test_shard_chaos_digest_is_clean(failover_report):
    digest = failover_report["chaos_digest"]
    assert digest["seeds"] == SOAK_SEEDS
    assert digest["violations"] == []
    assert digest[COMPLETE] + digest[TYPED] == digest["seeds"]
    assert digest["totals"]["controller_crashes"] > 0  # the digest exercised failover


def test_json_artifact_written(failover_report):
    payload = json.loads(Path("BENCH_shard.json").read_text())
    assert payload["mttr_gate_s"] == MTTR_GATE_S
    assert len(payload["sweep"]) == len(CRASH_PHASES)
    assert payload["mttr_worst_s"] <= MTTR_GATE_S
