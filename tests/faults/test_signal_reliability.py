"""Signals to dead daemons and the heartbeat failure detector.

Regression surface for the old silent-loss bug: a control signal
addressed to a node with no registered daemon used to vanish without a
trace.  Now it retries (the daemon may be mid-restart) and, failing
that, lands on ``SignalBus.undeliverable`` with a typed status.
"""

import numpy as np
import pytest

from repro.core.controller import HeartbeatMonitor
from repro.core.daemon import VnfDaemon
from repro.core.signals import NcForwardTab, NcHeartbeat, SignalBus
from repro.core.vnf import CodingVnf


def _daemon(scheduler, bus, name="relay", heartbeat_interval_s=None):
    vnf = CodingVnf(name, scheduler, rng=np.random.default_rng(0))
    return VnfDaemon(vnf, bus, heartbeat_interval_s=heartbeat_interval_s)


TABLE_TEXT = "1 a b\n"


class TestRetryThenUndeliverable:
    def test_signal_to_killed_daemon_is_recorded_not_lost(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.05)
        daemon = _daemon(scheduler, bus)
        daemon.kill()
        record = bus.send(NcForwardTab(target="relay", table_text=TABLE_TEXT))
        scheduler.run(until=5.0)
        assert record.status == "undeliverable"
        # First attempt plus every retry was made before giving up.
        assert record.attempts == bus.max_retries + 1
        assert record in bus.undeliverable_of_kind("NcForwardTab")
        assert daemon.applied_tables == 0

    def test_undeliverable_callback_fires(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.05)
        lost = []
        bus.on_undeliverable = lost.append
        daemon = _daemon(scheduler, bus)
        daemon.kill()
        bus.send(NcForwardTab(target="relay", table_text=TABLE_TEXT))
        scheduler.run(until=5.0)
        assert len(lost) == 1
        assert lost[0].signal.kind == "NcForwardTab"

    def test_restart_within_retry_window_recovers_delivery(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.05)
        daemon = _daemon(scheduler, bus)
        daemon.kill()
        record = bus.send(NcForwardTab(target="relay", table_text=TABLE_TEXT))
        # First attempt at 0.05 finds nobody; the daemon is back before
        # the 0.30 retry, so the signal lands on the second attempt.
        scheduler.schedule_at(0.2, daemon.restart)
        scheduler.run(until=5.0)
        assert record.status == "delivered"
        assert record.attempts == 2
        assert not bus.undeliverable
        # The restarted daemon has no running function yet, so the table
        # parks until the controller re-sends NC_SETTINGS.
        assert daemon.pending_table is not None


class TestHeartbeats:
    def test_beats_stop_on_kill_and_resume_on_restart(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.02)
        bus.register("controller", lambda signal: None)
        daemon = _daemon(scheduler, bus, heartbeat_interval_s=0.1)
        scheduler.run(until=0.35)
        assert daemon.heartbeats_sent == 3
        daemon.kill()
        scheduler.run(until=1.0)
        assert daemon.heartbeats_sent == 3  # a corpse does not beat
        daemon.restart()
        scheduler.run(until=1.35)
        assert daemon.heartbeats_sent == 6

    def test_monitor_declares_dead_deterministically(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.02)
        deaths = []
        monitor = HeartbeatMonitor(scheduler, interval_s=0.1, miss_threshold=3,
                                   on_dead=deaths.append)
        bus.register("controller", lambda signal: monitor.beat(signal.vnf_name))
        daemon = _daemon(scheduler, bus, heartbeat_interval_s=0.1)
        monitor.watch("relay")
        scheduler.schedule_at(0.35, daemon.kill)
        scheduler.run(until=2.0)
        monitor.stop()
        # Last beat delivered at 0.32; the first check past 0.32 + 3×0.1
        # is the tick at t=0.7 — detection latency is deterministic.
        assert deaths == ["relay"]
        assert monitor.dead["relay"] == pytest.approx(0.7)

    def test_live_daemon_is_never_declared_dead(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.02)
        monitor = HeartbeatMonitor(scheduler, interval_s=0.1, miss_threshold=3)
        bus.register("controller", lambda signal: monitor.beat(signal.vnf_name))
        _daemon(scheduler, bus, heartbeat_interval_s=0.1)
        monitor.watch("relay")
        scheduler.run(until=5.0)
        monitor.stop()
        assert monitor.dead == {}

    def test_unwatch_is_a_planned_shutdown_not_a_failure(self, scheduler):
        monitor = HeartbeatMonitor(scheduler, interval_s=0.1, miss_threshold=3)
        monitor.watch("relay")
        monitor.unwatch("relay")
        scheduler.run(until=2.0)
        monitor.stop()
        assert monitor.dead == {}

    def test_beats_from_unwatched_names_are_ignored(self, scheduler):
        monitor = HeartbeatMonitor(scheduler, interval_s=0.1)
        monitor.beat("stranger")
        assert "stranger" not in monitor.last_heard

    def test_rewatch_clears_a_death_verdict(self, scheduler):
        monitor = HeartbeatMonitor(scheduler, interval_s=0.1, miss_threshold=3)
        monitor.watch("relay")
        scheduler.run(until=1.0)
        assert "relay" in monitor.dead
        monitor.watch("relay")  # re-adopted after a restart
        assert "relay" not in monitor.dead
        monitor.stop()

    def test_monitor_rejects_bad_parameters(self, scheduler):
        with pytest.raises(ValueError, match="interval"):
            HeartbeatMonitor(scheduler, interval_s=0.0)
        with pytest.raises(ValueError, match="threshold"):
            HeartbeatMonitor(scheduler, miss_threshold=0)

    def test_heartbeat_signal_carries_monotonic_beat_numbers(self, scheduler):
        bus = SignalBus(scheduler, latency_s=0.02)
        beats = []
        bus.register("controller", lambda signal: beats.append(signal.beat))
        _daemon(scheduler, bus, heartbeat_interval_s=0.1)
        scheduler.run(until=0.55)
        assert beats == [1, 2, 3, 4, 5]
        assert all(isinstance(r.signal, NcHeartbeat)
                   for r in bus.sent_of_kind("NcHeartbeat"))
