"""The failure matrix: fault kind × session phase, end to end.

Every cell must end one of two ways — the lifecycle completes, or a
*typed*, observable outcome is recorded (a monitor death, a dropped or
undeliverable signal record, a FAILED VM).  No cell may wedge the
scheduler, and no control signal may disappear without a trace.

Two levels:

- :class:`TestLifecycleMatrix` drives the real control-plane script
  (NC_SETTINGS → function start → NC_FORWARD_TAB → NC_VNF_END →
  τ-grace → VM termination) against faults injected before settings,
  mid-generation, and during the grace window.
- :class:`TestButterflyUnderFaults` injects the same fault kinds into
  the packet-level Fig. 6 butterfly mid-transfer, including the
  headline relay-crash → detect → reroute → keep-decoding run.
"""

import statistics
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.cloud.flavor import InstanceFlavor
from repro.cloud.vm import VirtualMachine, VmState
from repro.core.controller import HeartbeatMonitor
from repro.core.daemon import VnfDaemon
from repro.core.signals import (
    NcForwardTab,
    NcHeartbeat,
    NcSettings,
    NcVnfEnd,
    SignalBus,
)
from repro.core.vnf import CodingVnf
from repro.experiments.failures import run_butterfly_failover
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.faults.injector import link_key
from repro.net.link import Link
from repro.net.packet import Datagram
from repro.soak import COMPLETE, TYPED

FLAVOR = InstanceFlavor("test.small", 2, 4.0, 1000.0, 1000.0, 900.0, 0.10)

# Lifecycle script (times in seconds).
BOOT_AT = 0.05       # VM comes up
SETTINGS_AT = 0.5    # NC_SETTINGS sent (delivered +0.02, function +~0.376)
TABLE_AT = 1.0       # NC_FORWARD_TAB sent
END_AT = 2.4         # NC_VNF_END sent; τ-grace follows
GRACE_TAU_S = 0.5    # VM grace window: 2.42 .. 2.92
HORIZON = 4.0

PHASE_TIMES = {
    "before-settings": 0.2,
    "mid-generation": 1.5,
    "during-grace": 2.55,
}

FAULT_KINDS = ("vm-crash", "link-flap", "daemon-kill", "signal-drop")


@dataclass
class CellResult:
    scheduler: object = None
    bus: object = None
    vm: object = None
    link: object = None
    daemon: object = None
    monitor: object = None
    deaths: list = field(default_factory=list)
    shutdowns: int = 0
    delivered_payloads: int = 0


def _plan_for(kind: str, phase: str, at: float, vm_id: str) -> FaultPlan:
    if kind == "vm-crash":
        # The daemon process lives on the VM; the crash takes both.
        return FaultPlan([
            FaultEvent(at, FaultKind.VM_CRASH, vm_id),
            FaultEvent(at, FaultKind.DAEMON_KILL, "relay"),
        ])
    if kind == "link-flap":
        return FaultPlan([
            FaultEvent(at, FaultKind.LINK_DOWN, link_key("relay", "sink")),
            FaultEvent(at + 0.2, FaultKind.LINK_UP, link_key("relay", "sink")),
        ])
    if kind == "daemon-kill":
        return FaultPlan([
            FaultEvent(at, FaultKind.DAEMON_KILL, "relay"),
            FaultEvent(at + 0.3, FaultKind.DAEMON_RESTART, "relay"),
        ])
    # signal-drop: eat the next delivery of whichever control signal is
    # still ahead of the fault in the lifecycle script.
    target = {
        "before-settings": "NcSettings",
        "mid-generation": "NcVnfEnd",
        "during-grace": "NcForwardTab",  # a late reconfigure racing shutdown
    }[phase]
    return FaultPlan([FaultEvent(at, FaultKind.SIGNAL_DROP, target)])


def _run_cell(kind: str, phase: str) -> CellResult:
    """One matrix cell: the full lifecycle script with one fault in it."""
    from repro.net.events import EventScheduler

    scheduler = EventScheduler()
    bus = SignalBus(scheduler, latency_s=0.02)
    result = CellResult(scheduler=scheduler, bus=bus)

    vm = VirtualMachine(scheduler, "oregon", FLAVOR,
                        launch_latency_s=BOOT_AT, grace_tau_s=GRACE_TAU_S)
    vnf = CodingVnf("relay", scheduler, rng=np.random.default_rng(0))

    def _on_shutdown(daemon: VnfDaemon) -> None:
        result.shutdowns += 1
        result.monitor.unwatch("relay")  # planned shutdown, not a failure
        vm.request_shutdown()

    daemon = VnfDaemon(vnf, bus, session_configs={},
                       on_shutdown=_on_shutdown, heartbeat_interval_s=0.1)
    result.vm, result.daemon = vm, daemon

    def _on_dead(name: str) -> None:
        first_death = not result.deaths
        result.deaths.append((name, scheduler.now))
        if first_death:
            # Recovery control loop in miniature: re-adopt once and
            # re-push the settings so a restarted daemon brings the
            # function back up.  A second death means nobody came back;
            # the name stays dead.
            result.monitor.watch(name)
            bus.send(NcSettings(target=name, session_ids=(1,), roles=()))

    monitor = HeartbeatMonitor(scheduler, interval_s=0.1, miss_threshold=3,
                               on_dead=_on_dead)
    result.monitor = monitor
    bus.register("controller",
                 lambda s: monitor.beat(s.vnf_name) if isinstance(s, NcHeartbeat) else None)
    monitor.watch("relay")

    # A small data stream through the node's egress link so link faults
    # have packets to hit.
    link = Link(scheduler, "relay", "sink", capacity_bps=10e6, delay_s=0.005,
                rng=np.random.default_rng(1))
    link.connect(lambda dgram: setattr(
        result, "delivered_payloads", result.delivered_payloads + 1))
    result.link = link

    def _stream() -> None:
        if scheduler.now <= 3.5:
            link.send(Datagram("relay", "sink", None, 1200))

    stream = scheduler.schedule_every(0.05, _stream, first_delay=0.1)

    # The controller's script.
    scheduler.schedule_at(SETTINGS_AT, bus.send,
                          NcSettings(target="relay", session_ids=(1,), roles=()))
    scheduler.schedule_at(TABLE_AT, bus.send,
                          NcForwardTab(target="relay", table_text="1 sink\n"))
    scheduler.schedule_at(END_AT, bus.send,
                          NcVnfEnd(target="relay", vnf_name="relay", tau_s=GRACE_TAU_S))
    if kind == "signal-drop" and phase == "during-grace":
        scheduler.schedule_at(2.6, bus.send,
                              NcForwardTab(target="relay", table_text="1 sink\n"))

    plan = _plan_for(kind, phase, PHASE_TIMES[phase], vm.vm_id)
    injector = FaultInjector(scheduler, plan)
    injector.add_vm(vm.vm_id, vm)
    injector.add_link("relay", "sink", link)
    injector.add_daemon("relay", daemon)
    injector.set_bus(bus)
    injector.arm()

    scheduler.run(until=HORIZON)
    monitor.stop()
    stream.cancel()
    return result


class TestLifecycleMatrix:
    @pytest.mark.parametrize("phase", PHASE_TIMES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_cell_terminates_with_typed_outcome(self, kind, phase):
        cell = _run_cell(kind, phase)
        # The scheduler ran to the horizon — no wedge, no livelock.
        assert cell.scheduler.now == pytest.approx(HORIZON)
        # Every control signal reached a terminal, *recorded* status;
        # nothing is still pending and nothing vanished silently.
        assert all(r.status in ("delivered", "dropped", "undeliverable")
                   for r in cell.bus.log)
        # Either the lifecycle completed or a typed failure artifact
        # exists for the experiment to assert on.
        completed = cell.shutdowns == 1 and cell.vm.state is VmState.TERMINATED
        typed_failure = (bool(cell.deaths) or bool(cell.bus.dropped)
                         or bool(cell.bus.undeliverable)
                         or cell.vm.state is VmState.FAILED)
        assert completed or typed_failure

    @pytest.mark.parametrize("phase", PHASE_TIMES)
    def test_vm_crash_fails_vm_and_is_detected(self, phase):
        cell = _run_cell("vm-crash", phase)
        assert cell.vm.state is VmState.FAILED
        # Billing froze at the crash, not at the horizon.
        assert cell.vm.billed_seconds(HORIZON) <= PHASE_TIMES[phase] + 1e-9
        if phase != "during-grace":
            # Heartbeats were flowing when the crash hit: the monitor
            # must notice, and the one-shot recovery push must leave an
            # undeliverable trace (nobody is left to receive it).
            # (During grace the daemon had already been unwatched by
            # the planned shutdown.)
            assert cell.deaths
            assert all(name == "relay" for name, _ in cell.deaths)
            assert cell.bus.undeliverable_of_kind("NcSettings")

    @pytest.mark.parametrize("phase", PHASE_TIMES)
    def test_link_flap_recovers_and_control_plane_is_untouched(self, phase):
        cell = _run_cell("link-flap", phase)
        assert cell.link.is_up
        assert cell.link.stats.dropped_down > 0  # the flap hit real traffic
        assert cell.delivered_payloads > 0       # ...and traffic resumed
        # A data-plane flap is invisible to the control plane.
        assert cell.deaths == []
        assert not cell.bus.undeliverable
        assert cell.shutdowns == 1
        assert cell.vm.state is VmState.TERMINATED

    @pytest.mark.parametrize("phase", PHASE_TIMES)
    def test_daemon_kill_restarts_with_amnesia(self, phase):
        cell = _run_cell("daemon-kill", phase)
        assert cell.daemon.restarts == 1
        assert cell.daemon.alive
        assert cell.daemon.killed_at == pytest.approx(PHASE_TIMES[phase])
        if phase == "mid-generation":
            # The 0.3 s outage exceeds the 3×0.1 s deadline: declared
            # dead, then the recovery loop re-sent NC_SETTINGS and the
            # restarted daemon brought the function back up before the
            # session ended.
            assert [name for name, _ in cell.deaths] == ["relay"]
            assert cell.daemon.started_at > PHASE_TIMES[phase]
            assert cell.shutdowns == 1

    @pytest.mark.parametrize("phase", PHASE_TIMES)
    def test_signal_drop_leaves_a_typed_record(self, phase):
        cell = _run_cell("signal-drop", phase)
        assert len(cell.bus.dropped) == 1
        dropped = cell.bus.dropped[0]
        assert dropped.status == "dropped"
        if phase == "before-settings":
            # The settings never arrived: the function never started.
            assert dropped.signal.kind == "NcSettings"
            assert not cell.daemon.function_running
            assert cell.daemon.applied_tables == 0
        elif phase == "mid-generation":
            # NC_VNF_END was eaten: the session never winds down and the
            # VM keeps running — exactly the leak the record exposes.
            assert dropped.signal.kind == "NcVnfEnd"
            assert cell.shutdowns == 0
            assert cell.vm.state is VmState.RUNNING
        else:
            # A late reconfigure racing the shutdown was dropped; the
            # planned shutdown itself completed normally.
            assert dropped.signal.kind == "NcForwardTab"
            assert cell.shutdowns == 1
            assert cell.vm.state is VmState.TERMINATED


#: The fixed seed set the butterfly failover figures are asserted and
#: quoted over (README "Self-healing", DESIGN §8): one seed is one sample
#: of a two-mode distribution, not a bound.
FAILOVER_SEEDS = tuple(range(1, 9))


class TestButterflyUnderFaults:
    """Packet-level matrix: the Fig. 6 butterfly mid-transfer."""

    @pytest.fixture(scope="class")
    def v2_crashes(self):
        """The headline crash (V2 dies at t = 1 s), once per seed of the set."""
        return {seed: run_butterfly_failover(duration_s=3.0, seed=seed) for seed in FAILOVER_SEEDS}

    def test_relay_crash_recovers_with_bounded_mttr(self, v2_crashes):
        """The headline: V2 dies at t=1 s; decoding survives it."""
        for r in v2_crashes.values():
            assert r.recovered
            # Detection latency is deterministic: miss_threshold × interval,
            # quantized to the monitor's own tick (0.1 s grid).
            assert r.detection_latency_s == pytest.approx(0.4, abs=1e-9)
            # MTTR is a distribution over seeds, in two modes one NACK
            # round apart (≈ 0.48 s and ≈ 0.74–0.77 s; 0.40–0.86 s over
            # 30 seeds): the first decode after the reroute waits for
            # whichever retry timer the crash happened to leave armed.
            assert 0.4 < r.recovery_latency_s < 1.0
            for name in r.receivers:
                assert r.decoded_before[name] > 0
                assert r.decoded_after[name] > 0
            # The recovery path checks registration before pushing tables,
            # so routing around the corpse loses no control signals.
            assert r.undeliverable_signals == 0
            assert [e.kind for _, e in r.applied_faults] == [FaultKind.NODE_CRASH]
        latencies = [r.recovery_latency_s for r in v2_crashes.values()]
        assert statistics.median(latencies) < 0.8
        assert max(latencies) < 0.9

    def test_recovered_session_never_freezes_behind_one_generation(self, v2_crashes):
        """After the reroute the two branches are disjoint: a repair sent
        down one never reaches the other receiver.  Each receiver's NACK
        must be answered on its own hop, or the slower receiver's cum-ACK
        sticks one generation short and the source's window shuts."""
        for seed, r in v2_crashes.items():
            lambda_mbps = r.recovery_plans[0].wiring.lambda_mbps
            assert min(r.post_recovery_throughput_mbps.values()) >= 0.5 * lambda_mbps, seed

    @pytest.mark.parametrize("fail_node", ["T", "V2"])
    def test_core_relay_crashes_are_survivable(self, fail_node):
        r = run_butterfly_failover(fail_node=fail_node, duration_s=2.5)
        assert r.recovered
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_side_relay_crash_recovers_to_full_rank(self):
        # O1 carries half the source's degrees of freedom AND O2's
        # reverse NACK path.  PR 2 could only terminate this as a typed
        # failure (both receivers stuck at half rank); the healing layer
        # re-runs the LP with O1 excised, moves the whole flow onto the
        # C1 branch and re-routes O2's feedback via V2→T→C1 — so both
        # receivers keep decoding at *full* rank.
        latencies = []
        for seed in FAILOVER_SEEDS:
            # A completable transfer and a horizon that lets it drain, so
            # "full rank" is checked exactly, not as a rate on one seed.
            r = run_butterfly_failover(fail_node="O1", duration_s=5.0, total_generations=500, seed=seed)
            assert r.detected_at is not None
            assert r.recovered
            # Detection alone accounts for 0.4 s of the recovery latency.
            assert r.detection_latency_s == pytest.approx(0.4, abs=1e-9)
            latencies.append(r.recovery_latency_s)
            # Full rank, not a trickle: each receiver decodes well over a
            # hundred complete generations after the crash — all of the
            # transfer it had not decoded before it.
            for name, app in r.receivers.items():
                assert r.decoded_after[name] > 100
                assert r.decoded_before[name] + r.decoded_after[name] == 500
                # No half-rank residue: everything each receiver has seen
                # is fully decoded — the PR 2 outcome left decoders stuck
                # open at rank k/2 forever.
                assert app._cum_ack == app.highest_seen == 499
                assert not app._decoders
            # The replan is recorded and feasible.
            assert r.recovery_plans and r.recovery_plans[0].feasible
            assert r.recovery_plans[0].dead_nodes == ("O1",)
            assert r.recovery_plans[0].source_shares == {"C1": pytest.approx(34.0)}
            assert all(record.status != "pending"
                       for record in r.bus.log if record.sent_at < 1.5)
        # First post-crash decode at both receivers within a second of the
        # failure — in the median and on at least three seeds in four.
        # The rest wait out one more NACK backoff round (1.02–1.24 s; 1 of
        # 30 seeds before the stream migration, 3 of 30 after it): a
        # finding recorded in DESIGN §8, not a bound widened to fit.
        assert statistics.median(latencies) < 1.0
        assert sum(latency < 1.0 for latency in latencies) >= 6

    def test_without_recovery_decoding_starves(self, v2_crashes):
        recovered = unrecovered = 0
        for seed, with_recovery in v2_crashes.items():
            r = run_butterfly_failover(duration_s=3.0, recover=False, seed=seed)
            assert r.detected_at is not None  # detector still fires
            # ARQ repair over the side branches salvages something, but
            # on every seed less than detection + reroute + rate fallback
            # recovers in the two seconds after the crash ...
            assert sum(r.decoded_after.values()) < sum(with_recovery.decoded_after.values())
            recovered += sum(with_recovery.decoded_after.values())
            unrecovered += sum(r.decoded_after.values())
        # ... and over the set far less (0.45 of it, either side of the
        # stream migration; the 1.5 s the old single-seed form left after
        # the crash ends before a slow-mode recovery has pulled ahead).
        assert unrecovered < 0.8 * recovered

    def test_bottleneck_flap_is_absorbed_by_arq(self):
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.LINK_DOWN, link_key("T", "V2")),
            FaultEvent(1.3, FaultKind.LINK_UP, link_key("T", "V2")),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.5)
        assert r.detected_at is None  # heartbeats kept flowing: no false positive
        bottleneck = r.topology.links[("T", "V2")]
        assert bottleneck.stats.dropped_down > 0
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_daemon_kill_triggers_reroute_and_transfer_survives(self):
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.DAEMON_KILL, "T"),
            FaultEvent(1.6, FaultKind.DAEMON_RESTART, "T"),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.5)
        # The 0.6 s outage blows the 0.4 s heartbeat deadline: T is
        # declared dead and the reroute fires even though the crash was
        # only the control-plane process.
        assert r.detected_at is not None
        assert r.daemons["T"].restarts == 1
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_corruption_window_is_contained_at_the_relay(self):
        # Bit-flip a third of the bottleneck's packets for 0.4 s.  V2's
        # checksum gate must drop every damaged packet before it can be
        # mixed into a recode — corruption degrades into loss, loss is
        # repaired, and the control plane never even notices.
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.LINK_CORRUPT, link_key("T", "V2"), param=0.3),
            FaultEvent(1.4, FaultKind.LINK_CLEAR, link_key("T", "V2")),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.5)
        dirty = r.topology.links[("T", "V2")]
        assert dirty.stats.corrupted_packets > 0   # the window hit real traffic
        assert dirty.impairments == []             # ...and was cleared
        assert r.daemons["V2"].vnf.corrupt_dropped > 0
        assert r.detected_at is None  # data-plane dirt: no false death verdict
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_duplication_window_is_deduplicated_at_the_relay(self):
        # Duplicate every packet entering O1 for 0.4 s.  The relay's
        # generation buffer must refuse the copies instead of emitting a
        # redundant recode per duplicate.
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.LINK_DUPLICATE, link_key("V1", "O1"), param=1.0),
            FaultEvent(1.4, FaultKind.LINK_CLEAR, link_key("V1", "O1")),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.5)
        dirty = r.topology.links[("V1", "O1")]
        assert dirty.stats.duplicated_packets > 0
        assert r.daemons["O1"].vnf.duplicate_dropped > 0
        assert r.detected_at is None
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_blackhole_window_is_absorbed_by_arq(self):
        # Unlike LINK_DOWN, a blackhole keeps the sender's view of the
        # link healthy — packets vanish with no local drop signal, the
        # purest exercise of the end-to-end NACK repair path.
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.LINK_BLACKHOLE, link_key("T", "V2")),
            FaultEvent(1.3, FaultKind.LINK_CLEAR, link_key("T", "V2")),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.5)
        dirty = r.topology.links[("T", "V2")]
        assert dirty.stats.dropped_blackhole > 0
        assert dirty.stats.dropped_down == 0  # never actually went down
        assert r.detected_at is None
        for name in r.receivers:
            assert r.decoded_after[name] > 0

    def test_dropped_heartbeats_below_threshold_are_tolerated(self):
        plan = FaultPlan([
            FaultEvent(1.0, FaultKind.SIGNAL_DROP, "NcHeartbeat"),
            FaultEvent(1.0, FaultKind.SIGNAL_DROP, "NcHeartbeat"),
        ])
        r = run_butterfly_failover(plan=plan, duration_s=2.0)
        assert len(r.bus.dropped) == 2
        assert r.detected_at is None  # two misses < threshold of three
        for name in r.receivers:
            assert r.decoded_after[name] > 0


class TestCrashDuringRetune:
    """The adaptive-loop cell: a retune NC_SETTINGS meets a crash.

    The adaptive controller (DESIGN.md §15) streams mid-session retunes
    at the relay daemons.  This cell kills the daemon while retunes are
    in flight (and, in the drop variant, eats one on the wire) and holds
    the loop to the matrix contract: typed records for every lost
    signal, staged-only application at generation boundaries, and a run
    that still ends complete-or-degraded-typed.
    """

    def _run(self, plan):
        from repro.adapt.soak import classify
        from repro.experiments.scenarios import GEO_SATELLITE, run_scenario

        result = run_scenario(
            GEO_SATELLITE, mode="adaptive", loss=0.2, duration_s=6.0, seed=2, plan=plan
        )
        return result, classify(2, result)

    def test_daemon_crash_mid_retune_leaves_typed_records(self):
        # Kill the relay daemon inside the retune flurry (reports start
        # arriving ~0.5 s in); revive it a second later.
        plan = FaultPlan([
            FaultEvent(0.9, FaultKind.DAEMON_KILL, "geo-sat"),
            FaultEvent(1.9, FaultKind.DAEMON_RESTART, "geo-sat"),
        ])
        result, outcome = self._run(plan)
        daemon = result.daemons["geo-sat"]
        assert daemon.restarts == 1 and daemon.alive
        # The controller kept pushing; whatever hit the dead daemon is
        # recorded, never silently gone.
        assert result.retunes_pushed > 0
        # (Signals sent just before the horizon may legally still be in
        # flight; anything with time to resolve must have.)
        assert all(
            r.status in ("delivered", "dropped", "undeliverable")
            for r in result.bus.log
            if r.sent_at < 4.0
        )
        lost = result.bus.undeliverable_of_kind("NcSettings")
        assert lost or daemon.retunes_staged > 0  # missed-or-staged, typed either way
        # Post-restart retunes land again and the data plane still only
        # applies them at generation boundaries (no mid-block reshape).
        assert result.retunes_applied <= result.retunes_pushed
        assert outcome.outcome in (COMPLETE, TYPED)
        assert outcome.applied_faults == 2  # kill + restart: the typed evidence

    def test_dropped_retune_is_recorded_and_superseded(self):
        plan = FaultPlan([FaultEvent(0.9, FaultKind.SIGNAL_DROP, "NcSettings")])
        result, outcome = self._run(plan)
        # Exactly one retune was eaten, with a typed record.
        dropped = [r for r in result.bus.dropped if r.signal.kind == "NcSettings"]
        assert len(dropped) == 1
        # The loop's later retunes carry higher epochs, so the lost one
        # is superseded rather than resurrected: the daemon's mirror
        # ends at the controller's final config.
        daemon = result.daemons["geo-sat"]
        assert result.retunes_pushed > 1
        controller = result.controller
        final = daemon.session_configs[result.source.session.session_id]
        assert final.blocks_per_generation == controller.config.blocks_per_generation
        assert final.redundancy.extra == controller.config.redundancy.extra
        assert outcome.outcome in (COMPLETE, TYPED)
