"""Shard failover MTTR: primary crash → lease takeover → config re-push.

Not a paper figure — the paper's controller is a single process.  This
benchmark measures the sharded control plane grown in DESIGN.md §14:
for a sweep of crash phases inside the heartbeat cycle (worst-case
detection alignment) it reports the takeover MTTR — crash to
adopted-state-re-pushed — and gates it at twice the PR 3 single-relay
recovery envelope (~0.88 s), so failover between controller replicas
never costs more than double an in-shard relay repair.  The seeded
controller-crash sweeps are ``python -m repro.soak shard`` (Tier-1
``tests/shard/test_soak.py``, the CI ``shard``/``shard-cold`` soak cells).
"""

import pytest

from repro.fleet.churn import SessionSpec
from repro.fleet.manager import fleet_of
from repro.net.events import EventScheduler
from repro.shard.controller import ShardController

#: 2x the PR 3 relay-crash recovery envelope (~0.88 s, test_recovery_mttr.py).
MTTR_GATE_S = 1.76

#: Crash offsets inside one heartbeat cycle: just-after-a-beat is the
#: worst case (a full interval elapses before the silence even starts).
CRASH_PHASES = (0.0, 0.05, 0.1, 0.15, 0.199)


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


@pytest.mark.benchmark(group="shard")
def test_shard_failover_mttr_report(benchmark, table_printer):
    # Timing target: one full crash→detect→adopt→re-push cycle at the
    # worst-case phase (crash right after a heartbeat lands).
    benchmark.pedantic(_takeover_mttr, args=(0.0,), rounds=1, iterations=1)
    sweep = [_takeover_mttr(phase) for phase in CRASH_PHASES]
    rows = [
        [
            f"{s['crash_phase_s']:.3f}",
            f"{s['detected_at_s'] - s['crashed_at_s']:.3f}",
            f"{s['mttr_s']:.3f}",
            s["fence"],
            s["pops_repushed"],
            s["sessions_preserved"],
        ]
        for s in sweep
    ]
    table_printer(
        "Shard takeover MTTR per crash phase",
        ["phase (s)", "detect (s)", "MTTR (s)", "fence", "PoPs", "sessions"],
        rows,
    )
    for scenario in sweep:
        assert scenario["fence"] == 2
        assert scenario["pops_repushed"] > 0
        assert scenario["sessions_preserved"] == 1  # no admitted state lost
        assert scenario["mttr_s"] <= MTTR_GATE_S
