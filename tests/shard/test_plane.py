"""Sharded control plane: channel retry/backoff, gossip, typed degradation."""

import pytest

from repro.core.signals import NcShardLease
from repro.fleet.churn import SessionSpec
from repro.fleet.manager import fleet_of
from repro.fleet.verdict import AdmissionStatus
from repro.net.events import EventScheduler
from repro.shard.plane import DELIVERED, EXPIRED, CrossShardChannel, ShardedControlPlane

LAT = {"A": {"A": 0.0, "B": 50.0}, "B": {"A": 50.0, "B": 0.0}}
CITIES = ("Seattle", "Sunnyvale", "Chicago", "New York")


def lease(shard_id="X", fence=2):
    return NcShardLease(target="peer", shard_id=shard_id, holder="h", fence=fence)


def make_plane(**kwargs):
    scheduler = EventScheduler()
    plane = ShardedControlPlane(2, fleet_of(CITIES), scheduler, **kwargs)
    return scheduler, plane


def spec(sid, source, receivers, rate=10.0):
    return SessionSpec(
        session_id=sid, source_city=source, receiver_cities=tuple(receivers), rate_mbps=rate
    )


# -- CrossShardChannel -----------------------------------------------------


def test_channel_delivers_after_wan_latency():
    scheduler = EventScheduler()
    channel = CrossShardChannel(scheduler, LAT)
    got = []
    channel.connect("B", got.append)
    delivery = channel.send("A", "B", lease())
    scheduler.run(until=1.0)
    assert delivery.status == DELIVERED
    assert delivery.delivered_at == pytest.approx(0.05)  # 50 ms WAN hop
    assert delivery.attempts == 1
    assert got == [delivery.signal]


def test_channel_retries_with_backoff_until_endpoint_ready():
    scheduler = EventScheduler()
    channel = CrossShardChannel(scheduler, LAT, base_backoff_s=0.1)
    got = []
    up = [False]
    channel.connect("B", got.append, ready=lambda: up[0])
    delivery = channel.send("A", "B", lease())
    scheduler.schedule_at(0.5, lambda: up.__setitem__(0, True))
    scheduler.run(until=5.0)
    assert delivery.status == DELIVERED
    assert delivery.attempts > 1
    assert channel.retries == delivery.attempts - 1
    # Retry spacing doubles: attempts at 0.05, +0.1, +0.2, +0.4 -> 0.75.
    assert delivery.delivered_at == pytest.approx(0.75)
    assert got == [delivery.signal]


def test_channel_expires_after_attempt_budget():
    scheduler = EventScheduler()
    channel = CrossShardChannel(scheduler, LAT, base_backoff_s=0.1, max_attempts=3)
    channel.connect("B", lambda s: None, ready=lambda: False)
    delivery = channel.send("A", "B", lease())
    scheduler.run(until=60.0)
    assert delivery.status == EXPIRED
    assert delivery.attempts == 3
    assert channel.expired == [delivery]


def test_channel_expires_on_timeout_even_with_attempts_left():
    scheduler = EventScheduler()
    channel = CrossShardChannel(
        scheduler, LAT, base_backoff_s=2.0, max_attempts=50, timeout_s=5.0
    )
    channel.connect("B", lambda s: None, ready=lambda: False)
    delivery = channel.send("A", "B", lease())
    scheduler.run(until=60.0)
    assert delivery.status == EXPIRED
    assert delivery.attempts < 50
    assert channel.expired == [delivery]


def test_channel_missing_endpoint_behaves_like_not_ready():
    scheduler = EventScheduler()
    channel = CrossShardChannel(scheduler, LAT, base_backoff_s=0.1, max_attempts=2)
    delivery = channel.send("A", "B", lease())  # nothing connected at B
    scheduler.run(until=60.0)
    assert delivery.status == EXPIRED


def test_channel_rejects_duplicate_connect_and_bad_params():
    scheduler = EventScheduler()
    channel = CrossShardChannel(scheduler, LAT)
    channel.connect("B", lambda s: None)
    with pytest.raises(ValueError):
        channel.connect("B", lambda s: None)
    with pytest.raises(ValueError):
        CrossShardChannel(scheduler, LAT, base_backoff_s=0.0)
    with pytest.raises(ValueError):
        CrossShardChannel(scheduler, LAT, max_attempts=0)
    with pytest.raises(ValueError):
        CrossShardChannel(scheduler, LAT, timeout_s=-1.0)


# -- plane homing + gossip -------------------------------------------------


def test_every_city_homes_to_a_live_shard():
    scheduler, plane = make_plane()
    assert len(plane.shards) == 2
    for i, city in enumerate(CITIES):
        home = plane.home_of(spec(i, city, [c for c in CITIES if c != city][:1]))
        assert home in plane.shards
    plane.stop()


def test_takeover_gossips_the_new_fence_to_peers():
    scheduler, plane = make_plane()
    victim, other = sorted(plane.shards)
    plane.shards[victim].replicas[0].crash()
    scheduler.run(until=5.0)
    plane.stop()
    assert len(plane.shards[victim].takeovers) == 1
    assert plane.peer_views[other] == {victim: 2}
    assert plane.peer_views[victim] == {}  # no takeover on the other shard


def test_stale_lease_announcements_are_discarded():
    scheduler, plane = make_plane()
    a, b = sorted(plane.shards)
    plane.channel.send(a, b, lease(shard_id=a, fence=3))
    plane.channel.send(a, b, lease(shard_id=a, fence=2))  # reordered stale
    scheduler.run(until=2.0)
    plane.stop()
    assert plane.peer_views[b] == {a: 3}


# -- plane retry / typed degradation --------------------------------------


def outage(plane, city):
    """Crash every replica of one shard: headless until a restore."""
    for replica in plane.shards[city].replicas:
        replica.crash()


def test_join_during_outage_is_retried_then_admitted():
    scheduler, plane = make_plane()
    home = plane.home_of(spec(1, CITIES[0], CITIES[1:2]))
    outage(plane, home)
    plane.submit(spec(1, CITIES[0], CITIES[1:2]))
    scheduler.schedule_at(0.3, plane.shards[home].replicas[0].restore)
    scheduler.run(until=20.0)
    plane.stop()
    (verdict,) = plane.verdicts
    assert verdict.status is AdmissionStatus.ADMITTED
    assert plane.stats.retries > 0
    assert plane.active_sessions == 1


def test_join_with_no_primary_ever_gets_a_typed_unavailable_verdict():
    scheduler, plane = make_plane(max_attempts=4, base_backoff_s=0.05)
    home = plane.home_of(spec(1, CITIES[0], CITIES[1:2]))
    outage(plane, home)
    plane.submit(spec(1, CITIES[0], CITIES[1:2]))
    scheduler.run(until=30.0)
    plane.stop()
    (verdict,) = plane.verdicts
    assert verdict.status is AdmissionStatus.REJECTED_UNAVAILABLE
    assert verdict.reason is not None and home in verdict.reason
    assert plane.stats.unavailable_rejections == 1
    assert plane.active_sessions == 0
    assert not plane.stats.stranded  # a typed verdict, not a strand


def test_unknown_city_is_a_typed_verdict_and_the_run_continues():
    # An unknown source city has no home shard and an unknown receiver city no
    # attachment: both used to raise KeyError out of EventScheduler.run.
    scheduler = EventScheduler()
    plane = ShardedControlPlane(3, fleet_of(CITIES), scheduler)
    scheduler.schedule_at(0.1, plane.submit, spec(1, "Atlantis", ["Seattle"]))
    scheduler.schedule_at(0.2, plane.submit, spec(2, "Seattle", ["Chicago", "Atlantis"]))
    scheduler.schedule_at(0.3, plane.submit, spec(3, "Seattle", ["Chicago"]))
    for sid in (1, 2, 3):
        scheduler.schedule_at(0.4 + sid / 10, plane.depart, sid)
    scheduler.run(until=2.0)
    plane.stop()
    assert [(v.session_id, v.status, v.lp_solves) for v in plane.verdicts] == [
        (1, AdmissionStatus.REJECTED_INFEASIBLE, 0),
        (2, AdmissionStatus.REJECTED_INFEASIBLE, 0),
        (3, AdmissionStatus.ADMITTED, 1),
    ]
    assert all("Atlantis" in v.reason for v in plane.verdicts[:2])
    assert plane.departed == [1, 2, 3] and plane.active_sessions == 0
    assert not plane.stats.stranded


def test_leave_overtaking_a_delayed_join_still_drains():
    scheduler, plane = make_plane()
    s = spec(1, CITIES[0], CITIES[1:2])
    home = plane.home_of(s)
    outage(plane, home)
    plane.submit(s)  # stuck in the retry loop
    plane.depart(1)  # leave arrives while the join is still pending
    scheduler.schedule_at(0.3, plane.shards[home].replicas[0].restore)
    scheduler.run(until=20.0)
    plane.stop()
    (verdict,) = plane.verdicts
    assert verdict.status is AdmissionStatus.ADMITTED  # the join DID land...
    assert plane.departed == [1]  # ...and then undid itself
    assert plane._sessions_by_id == {} and not plane._cancelled
    assert plane.active_sessions == 0
    assert plane.total_vnfs == 0
    assert not plane.stats.stranded


def test_leave_during_brief_outage_is_retried_until_it_lands():
    scheduler, plane = make_plane()
    s = spec(1, CITIES[0], CITIES[1:2])
    home = plane.home_of(s)
    plane.submit(s)
    outage(plane, home)
    plane.depart(1)
    scheduler.schedule_at(0.3, plane.shards[home].replicas[0].restore)
    scheduler.run(until=20.0)
    plane.stop()
    assert plane.departed == [1]
    assert plane.active_sessions == 0
    assert not plane.stats.stranded


def test_a_second_leave_or_a_late_replan_for_a_landed_session_is_a_no_op():
    # A repeated leave used to land in ``departed`` twice (the manager found
    # no plan and the shard still answered True): a surplus leave to anyone
    # checking joins - len(departed).
    scheduler, plane = make_plane()
    plane.submit(spec(1, CITIES[0], CITIES[1:2]))
    plane.depart(1)
    plane.depart(1)
    plane.replan(1)
    scheduler.run(until=2.0)
    plane.stop()
    assert plane.departed == [1]
    assert len(plane.verdicts) == 1 and not plane.stats.stranded
    assert plane.stats.departs == 2 and plane.stats.replans == 1  # requests, not outcomes
    assert plane._sessions_by_id == {}, "the spec goes when its leave lands"


def test_two_leaves_riding_out_one_outage_land_once():
    scheduler, plane = make_plane()
    s = spec(1, CITIES[0], CITIES[1:2])
    home = plane.home_of(s)
    plane.submit(s)
    outage(plane, home)
    plane.depart(1)
    plane.depart(1)  # both in the retry loop; the second finds the first's work done
    scheduler.schedule_at(0.3, plane.shards[home].replicas[0].restore)
    scheduler.run(until=20.0)
    plane.stop()
    assert plane.departed == [1] and plane.active_sessions == 0
    assert not plane.stats.stranded


def test_a_leave_overtaking_a_rejected_join_keeps_nothing():
    scheduler, plane = make_plane()
    home = plane.home_of(spec(1, CITIES[0], ["Atlantis"]))
    outage(plane, home)
    plane.submit(spec(1, CITIES[0], ["Atlantis"]))  # will be refused once the shard is back
    plane.depart(1)
    scheduler.schedule_at(0.3, plane.shards[home].replicas[0].restore)
    scheduler.run(until=20.0)
    plane.stop()
    (verdict,) = plane.verdicts
    assert verdict.status is AdmissionStatus.REJECTED_INFEASIBLE
    assert plane.departed == [] and plane._sessions_by_id == {} and not plane._cancelled


def test_an_id_the_plane_never_saw_is_still_an_error():
    _, plane = make_plane()
    plane.submit(spec(1, CITIES[0], CITIES[1:2]))
    plane.depart(1)
    for request in (plane.depart, plane.replan):
        with pytest.raises(KeyError, match="session 2 was never submitted"):
            request(2)
    plane.stop()


def test_canonical_is_stable_across_identical_runs():
    def run():
        scheduler, plane = make_plane()
        victim = sorted(plane.shards)[0]
        scheduler.schedule_at(0.4, plane.shards[victim].replicas[0].crash)
        plane.submit(spec(1, CITIES[0], CITIES[1:2]))
        plane.submit(spec(2, CITIES[2], CITIES[3:4]))
        scheduler.run(until=10.0)
        plane.stop()
        return plane.canonical()

    assert run() == run()
