"""Shard failover: takeover, state adoption, split-brain fencing."""

import pytest

from repro.fleet.churn import SessionSpec
from repro.fleet.manager import FleetManager, fleet_of
from repro.net.events import EventScheduler
from repro.shard.controller import ShardController

CITIES = ("Chicago", "Denver", "Kansas City")


def make_shard(**kwargs):
    scheduler = EventScheduler()
    shard = ShardController("Chicago", fleet_of(CITIES), scheduler, **kwargs)
    return scheduler, shard


def spec(sid, source="Chicago", receivers=("Denver",), rate=10.0):
    return SessionSpec(
        session_id=sid, source_city=source, receiver_cities=tuple(receivers), rate_mbps=rate
    )


def test_admit_pushes_config_at_founding_fence():
    scheduler, shard = make_shard()
    verdict = shard.try_admit(spec(1))
    assert verdict is not None and verdict.admitted
    scheduler.run(until=1.0)
    shard.stop()
    assert shard.store is not None
    touched = [dc for dc, gate in shard.store.gates.items() if gate.epoch > 0]
    assert touched  # at least one PoP got the push
    for dc in touched:
        assert shard.store.gates[dc].fence == 1  # the founding lease fence


def test_primary_crash_takes_over_without_losing_state():
    scheduler, shard = make_shard()
    for sid in (1, 2):
        verdict = shard.try_admit(spec(sid, receivers=("Denver", "Kansas City")))
        assert verdict is not None and verdict.admitted
    before_index = shard.manager.index.canonical()
    before_tables = shard.manager.forwarding_tables()
    before_epoch = shard.manager.config_epoch
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.run(until=5.0)
    shard.stop()
    (takeover,) = shard.takeovers
    assert shard.lease.fence == 2
    assert shard.lease.holder == "Chicago#r1"
    assert takeover.successor == "Chicago#r1"
    assert takeover.deposed == "Chicago#r0"
    # No admitted state lost: same sessions, same index, same routing.
    assert shard.manager.active_sessions == 2
    assert shard.manager.index.canonical() == before_index
    assert shard.manager.forwarding_tables() == before_tables
    # Epoch resumed past the replicated high-water mark, fence installed.
    assert shard.manager.config_epoch > before_epoch
    assert shard.manager.config_fence == 2
    # The re-push reconfigured every PoP the sessions touch.
    assert takeover.pops_repushed > 0
    assert shard.store is not None
    for dc, gate in shard.store.gates.items():
        if gate.epoch > 0:
            assert gate.fence == 2


def test_takeover_mttr_within_the_recovery_envelope():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.run(until=5.0)
    shard.stop()
    (takeover,) = shard.takeovers
    assert takeover.mttr_s is not None
    # 2x the PR 3 relay-crash recovery envelope (~0.88 s).
    assert takeover.mttr_s <= 1.76


def test_split_brain_deposed_primary_tables_rejected():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.run(until=5.0)
    assert shard.takeovers, "takeover must have happened"
    assert shard.store is not None
    rejected_before = shard.store.stale_rejected
    tables_before = dict(shard.store.tables)
    # The zombie: the deposed primary's manager, still wired to the bus.
    (zombie,) = shard.zombies
    assert zombie.config_fence == 1
    # Let its private epoch run far ahead — fencing must still win.
    for _ in range(5):
        zombie.republish_config()
    scheduler.run(until=8.0)
    shard.stop()
    assert zombie.config_epoch > shard.manager.config_epoch
    assert shard.store.stale_rejected > rejected_before
    assert shard.store.tables == tables_before  # nothing zombie-written


def test_restored_replica_rejoins_as_standby_and_can_take_over_again():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.schedule_at(3.0, shard.replicas[0].restore)
    scheduler.run(until=4.0)
    assert shard.lease.holder == "Chicago#r1"
    assert shard.replicas[0].alive  # back, but deposed: a standby now
    scheduler.schedule_at(4.5, shard.replicas[1].crash)
    scheduler.run(until=8.0)
    shard.stop()
    assert len(shard.takeovers) == 2
    assert shard.lease.holder == "Chicago#r0"
    assert shard.lease.fence == 3
    assert shard.manager.active_sessions == 1


def test_second_takeover_husks_the_first_zombie_and_still_fences_the_last():
    # Two replicas: once r0 has come back as an empty standby, only the *last*
    # deposed manager can still be a running process.  It must stay whole,
    # wired and fenced; the one before it keeps its ledger and nothing else.
    scheduler, shard = make_shard()
    for sid in (1, 2):
        assert shard.try_admit(spec(sid, receivers=("Denver", "Kansas City"))) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.schedule_at(3.0, shard.replicas[0].restore)
    scheduler.schedule_at(4.5, shard.replicas[1].crash)
    scheduler.run(until=8.0)
    assert len(shard.takeovers) == 2 and shard.manager.active_sessions == 2
    assert shard.store is not None
    husk, zombie = shard.zombies

    assert (husk.sessions, husk.plans, husk._routes, husk._lps) == ({}, {}, {}, {})
    assert husk.index.canonical() == FleetManager(fleet_of(CITIES)).index.canonical()
    assert (husk.lp_solves, husk.config_fence) == (2, 1), "the ledger and the stamp stay"
    assert husk.basis_memory, "and so does what it learned"
    sent_before = shard.bus.sent_count
    assert husk.republish_config() == 0 and shard.bus.sent_count == sent_before

    assert len(zombie.plans) == 2 and zombie.config_fence == 2
    rejected_before, tables_before = shard.store.stale_rejected, dict(shard.store.tables)
    for _ in range(5):
        zombie.republish_config()
    scheduler.run(until=10.0)
    shard.stop()
    assert zombie.config_epoch > shard.manager.config_epoch
    assert shard.store.stale_rejected > rejected_before
    assert shard.store.tables == tables_before  # nothing zombie-written


def test_dual_failure_waits_for_any_restore_then_takes_over():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    scheduler.schedule_at(1.0, shard.replicas[1].crash)  # standby dies first
    scheduler.schedule_at(1.05, shard.replicas[0].crash)  # then the primary
    scheduler.run(until=4.0)
    assert shard.awaiting_successor
    assert not shard.has_primary
    assert not shard.takeovers
    scheduler.schedule_at(4.5, shard.replicas[1].restore)
    scheduler.run(until=6.0)
    shard.stop()
    (takeover,) = shard.takeovers
    assert takeover.successor == "Chicago#r1"
    assert shard.has_primary
    assert shard.manager.active_sessions == 1


def test_dual_failure_incumbent_restore_keeps_the_lease():
    scheduler, shard = make_shard()
    scheduler.schedule_at(1.0, shard.replicas[1].crash)
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.run(until=4.0)
    assert shard.awaiting_successor
    scheduler.schedule_at(4.5, shard.replicas[0].restore)  # incumbent first
    scheduler.run(until=8.0)
    shard.stop()
    assert not shard.takeovers  # no succession: state never moved
    assert shard.lease.fence == 1
    assert shard.lease.holder == "Chicago#r0"
    assert shard.has_primary


def test_brief_outage_under_detection_threshold_is_a_non_event():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.schedule_at(1.35, shard.replicas[0].restore)  # back before deadline
    scheduler.run(until=5.0)
    shard.stop()
    assert not shard.takeovers
    assert shard.lease.fence == 1
    assert shard.manager.active_sessions == 1


def test_headless_shard_returns_none_for_every_operation():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1)) is not None
    shard.replicas[0].crash()
    assert shard.try_admit(spec(2)) is None
    assert shard.try_depart(1) is None
    assert shard.try_replan(1) is None
    shard.stop()


def test_replan_after_takeover_rebuilds_the_lp_lazily():
    scheduler, shard = make_shard()
    assert shard.try_admit(spec(1, receivers=("Denver", "Kansas City"))) is not None
    scheduler.schedule_at(1.05, shard.replicas[0].crash)
    scheduler.run(until=5.0)
    assert shard.takeovers
    # The successor's manager has no cached LP for the adopted session;
    # the replan must rebuild it from the spec and still carry the rate.
    verdict = shard.try_replan(1)
    assert verdict is not None and verdict.admitted
    assert verdict.lambda_mbps == pytest.approx(10.0)
    shard.stop()


def test_shard_requires_at_least_one_replica():
    scheduler = EventScheduler()
    with pytest.raises(ValueError):
        ShardController("Chicago", fleet_of(CITIES), scheduler, replicas=0)
