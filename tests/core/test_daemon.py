"""Daemon signal-handling tests (§III-A)."""

import numpy as np
import pytest

from repro.core.daemon import VNF_START_LATENCY_S, VnfDaemon
from repro.core.signals import NcForwardTab, NcSettings, NcVnfEnd, SignalBus
from repro.core.vnf import CodingVnf, VnfRole
from repro.fleet import FleetManager, SessionSpec, fleet_of


@pytest.fixture
def daemon_setup(scheduler, rng):
    bus = SignalBus(scheduler, latency_s=0.01)
    vnf = CodingVnf("node1", scheduler, rng=rng)
    daemon = VnfDaemon(vnf, bus)
    return bus, vnf, daemon


class TestSettings:
    def test_settings_configure_roles(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", session_ids=(5,), roles=((5, "recoder"),), udp_port=52017))
        scheduler.run()
        assert vnf.roles[5] is VnfRole.RECODER

    def test_function_start_latency(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "forwarder"),)))
        scheduler.run(until=0.01 + VNF_START_LATENCY_S / 2)
        assert not daemon.function_running
        scheduler.run(until=0.01 + VNF_START_LATENCY_S + 0.01)
        assert daemon.function_running
        # ~376 ms, the §V-C5 measurement.
        assert daemon.started_at == pytest.approx(0.01 + VNF_START_LATENCY_S, abs=1e-6)


class TestForwardTab:
    def test_table_applied_when_running(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()
        bus.send(NcForwardTab(target="node1", table_text="1 hopA hopB\n"))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["hopA", "hopB"]
        assert daemon.applied_tables == 1
        assert daemon.total_pause_s > 0

    def test_table_before_start_is_deferred(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcForwardTab(target="node1", table_text="1 hopA\n"))
        scheduler.run(until=0.05)
        assert vnf.forwarding_table.next_hops(1) == []  # not yet applied
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["hopA"]


class TestStaleConfigDefense:
    def _bring_up(self, bus, scheduler):
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()

    def test_older_epoch_table_is_rejected(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 recovered\n", epoch=2))
        scheduler.run()
        # A pre-replan table delayed past the recovery push must not
        # clobber the recovered state.
        bus.send(NcForwardTab(target="node1", table_text="1 stale\n", epoch=1))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["recovered"]
        assert daemon.stale_rejected == 1
        assert daemon.config_epoch == 2

    def test_equal_epoch_is_accepted(self, daemon_setup, scheduler):
        # Table + settings of one controller push share an epoch, and
        # epoch-0 senders predating the protocol keep working.
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 a\n", epoch=3))
        bus.send(NcForwardTab(target="node1", table_text="1 b\n", epoch=3))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["b"]
        assert daemon.stale_rejected == 0

    def test_stale_settings_do_not_reconfigure(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),), epoch=5))
        scheduler.run()
        bus.send(NcSettings(target="node1", roles=((1, "forwarder"),), epoch=4))
        scheduler.run()
        assert vnf.roles[1] is VnfRole.RECODER
        assert daemon.stale_rejected == 1

    def test_restart_forgets_epoch(self, daemon_setup, scheduler):
        # Supervisor-restart amnesia: a fresh daemon process accepts
        # whatever epoch the controller sends next.
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 x\n", epoch=7))
        scheduler.run()
        daemon.kill()
        daemon.restart()
        assert daemon.config_epoch == 0
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),), epoch=1))
        scheduler.run()
        assert daemon.stale_rejected == 0


class TestFencedConfigDefense:
    """Shard-era split-brain defense: configs order by (fence, epoch)."""

    def _bring_up(self, bus, scheduler):
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()

    def test_new_fence_dominates_any_old_epoch(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 old\n", epoch=50, fence=1))
        scheduler.run()
        # The takeover successor restarts low in epoch but carries the
        # bumped fence — it must still win against epoch 50.
        bus.send(NcForwardTab(target="node1", table_text="1 successor\n", epoch=1, fence=2))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["successor"]
        assert daemon.config_fence == 2
        assert daemon.stale_rejected == 0

    def test_deposed_primary_table_rejected_whatever_its_epoch(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 successor\n", epoch=1, fence=2))
        scheduler.run()
        # The zombie kept counting: huge epoch, stale fence. Fenced out.
        bus.send(NcForwardTab(target="node1", table_text="1 zombie\n", epoch=999, fence=1))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["successor"]
        assert daemon.stale_rejected == 1
        assert daemon.config_fence == 2

    def test_same_fence_keeps_epoch_ordering(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 newer\n", epoch=4, fence=2))
        scheduler.run()
        bus.send(NcForwardTab(target="node1", table_text="1 older\n", epoch=3, fence=2))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == ["newer"]
        assert daemon.stale_rejected == 1

    def test_stale_fenced_settings_rejected(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),), epoch=2, fence=3))
        scheduler.run()
        bus.send(NcSettings(target="node1", roles=((1, "forwarder"),), epoch=9, fence=2))
        scheduler.run()
        assert vnf.roles[1] is VnfRole.RECODER
        assert daemon.stale_rejected == 1

    def test_restart_forgets_fence_with_epoch(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        self._bring_up(bus, scheduler)
        bus.send(NcForwardTab(target="node1", table_text="1 x\n", epoch=7, fence=4))
        scheduler.run()
        stale_before = daemon.stale_rejected
        daemon.kill()
        daemon.restart()
        assert daemon.config_fence == 0
        assert daemon.config_epoch == 0
        assert daemon.stale_rejected == stale_before  # the tally survives
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),), epoch=1, fence=1))
        scheduler.run()
        assert daemon.stale_rejected == stale_before


class TestDuplicateDelivery:
    def test_redelivered_signal_is_dropped(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()
        table = NcForwardTab(target="node1", table_text="1 hopA\n")
        bus.send(table)
        bus.send(table)  # at-least-once retry re-sends the same signal
        scheduler.run()
        assert daemon.applied_tables == 1  # the SIGUSR1 pause was paid once
        assert daemon.duplicate_dropped == 1

    def test_equal_but_distinct_signals_both_apply(self, daemon_setup, scheduler):
        # Dedup keys on signal identity, not content equality: the
        # controller may legitimately re-push identical table text.
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"),)))
        scheduler.run()
        first = NcForwardTab(target="node1", table_text="1 hopA\n")
        second = NcForwardTab(target="node1", table_text="1 hopA\n")
        assert first == second  # content-equal…
        bus.send(first)
        bus.send(second)
        scheduler.run()
        assert daemon.applied_tables == 2  # …but both deliveries count
        assert daemon.duplicate_dropped == 0

    def test_restart_clears_dedup_window(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        settings = NcSettings(target="node1", roles=((1, "recoder"),))
        bus.send(settings)
        scheduler.run()
        daemon.kill()
        daemon.restart()
        bus.send(settings)  # controller re-sends after the restart
        scheduler.run()
        assert daemon.duplicate_dropped == 0
        assert vnf.roles[1] is VnfRole.RECODER


class TestMalformedConfig:
    """The two controllers speak two dialects of NC_SETTINGS/NC_FORWARD_TAB
    (ROADMAP "One controller"): the fleet plane's role ``"coder"`` and
    ``sid:prev->next`` rows are hostile input to a ``VnfDaemon`` — a
    counted drop, never an exception out of the event loop."""

    def test_daemon_on_a_fleet_bus_refuses_the_dialect_and_keeps_its_stamp(self, scheduler, rng):
        bus = SignalBus(scheduler, latency_s=0.01)
        manager = FleetManager(fleet_of(("Chicago", "Denver", "Kansas City")), bus=bus)
        vnf = CodingVnf("Kansas City", scheduler, rng=rng)
        daemon = VnfDaemon(vnf, bus)
        for sid in (1, 2):
            spec = SessionSpec(
                session_id=sid, source_city="Chicago", receiver_cities=("Denver",), rate_mbps=10.0
            )
            assert manager.admit(spec).admitted
        scheduler.run(until=1.0)
        pushed = [r.signal for r in bus.log if isinstance(r.signal, (NcSettings, NcForwardTab))]
        assert {s.target for s in pushed} == {"Kansas City"}
        assert max(s.epoch for s in pushed) == 2
        assert daemon.alive and daemon.malformed_config == len(pushed) == 4
        assert daemon.config_epoch == 0 and daemon.stale_rejected == 0
        assert not vnf.roles and not daemon.function_running and daemon.pending_table is None
        # A refused push left the gate alone: a valid one below its epoch applies.
        bus.send(NcSettings(target="Kansas City", roles=((1, "recoder"),), epoch=1))
        bus.send(NcForwardTab(target="Kansas City", table_text="1 Denver\n", epoch=1))
        scheduler.run(until=2.0)
        assert vnf.roles[1] is VnfRole.RECODER and daemon.config_epoch == 1
        assert vnf.forwarding_table.next_hops(1) == ["Denver"]
        assert daemon.malformed_config == 4 and daemon.stale_rejected == 0

    def test_one_bad_role_refuses_the_whole_settings_signal(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        bus.send(NcSettings(target="node1", roles=((1, "recoder"), (2, "coder")), shapes=((1, "hopA", 2),)))
        scheduler.run()
        assert daemon.malformed_config == 1
        assert not vnf.roles and not daemon.function_running


class TestVnfEnd:
    def test_end_unregisters_and_notifies(self, daemon_setup, scheduler):
        bus, vnf, daemon = daemon_setup
        ended = []
        daemon.on_shutdown = ended.append
        bus.send(NcVnfEnd(target="node1", vnf_name="node1"))
        scheduler.run()
        assert ended == [daemon]
        assert not daemon.function_running
        # Further signals are ignored (daemon unregistered).
        bus.send(NcForwardTab(target="node1", table_text="1 x\n"))
        scheduler.run()
        assert vnf.forwarding_table.next_hops(1) == []
