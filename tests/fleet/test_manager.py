"""FleetManager behaviour: verdicts, solve counts, epochs, signals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.signals import SignalBus
from repro.fleet import AdmissionStatus, FleetManager, SessionSpec, fleet_of
from repro.lp.simplex import PreparedProgram, SimplexResult
from repro.net.events import EventScheduler

DC_CITIES = ["Seattle", "Denver", "Chicago", "Houston", "New York"]


def make_manager(**kwargs) -> FleetManager:
    dcs = fleet_of(
        DC_CITIES,
        inbound_mbps=kwargs.pop("inbound_mbps", 400.0),
        outbound_mbps=kwargs.pop("outbound_mbps", 400.0),
        coding_mbps=kwargs.pop("coding_mbps", 360.0),
        max_vnfs=kwargs.pop("max_vnfs", 8),
    )
    return FleetManager(dcs, **kwargs)


def spec(sid: int, src: str = "Portland", recvs=("Boston",), rate: float = 10.0, delay: float = 100.0) -> SessionSpec:
    return SessionSpec(
        session_id=sid, source_city=src, receiver_cities=tuple(recvs), rate_mbps=rate, max_delay_ms=delay
    )


class TestAdmission:
    def test_admit_carries_full_rate(self):
        m = make_manager()
        v = m.admit(spec(1))
        assert v.status is AdmissionStatus.ADMITTED
        assert v.lambda_mbps == pytest.approx(10.0)
        assert v.lp_solves == 1

    def test_admission_is_one_lp_solve(self):
        m = make_manager()
        m.admit(spec(1))
        before = m.lp_solves
        m.admit(spec(2, src="Dallas", recvs=("Atlanta",)))
        assert m.lp_solves == before + 1

    def test_infeasible_delay_is_typed_and_free(self):
        m = make_manager()
        v = m.admit(spec(1, src="Seattle", recvs=("Miami",), delay=5.0))
        assert v.status is AdmissionStatus.REJECTED_INFEASIBLE
        assert v.lp_solves == 0
        assert m.lp_solves == 0
        assert m.active_sessions == 0

    @pytest.mark.parametrize(
        "source, receivers", [("Atlantis", ("Seattle",)), ("Seattle", ("Boston", "Atlantis"))]
    )
    def test_unknown_city_is_typed_and_free(self, source, receivers):
        # Used to be a KeyError out of attachments(); tenant input must not raise.
        m = make_manager()
        v = m.admit(spec(1, src=source, recvs=receivers))
        assert v.status is AdmissionStatus.REJECTED_INFEASIBLE
        assert "Atlantis" in v.reason
        assert v.lp_solves == 0 and m.lp_solves == 0 and m.active_sessions == 0
        assert m.depart(1) is None  # its leave is the no-op every rejected join's is
        assert m.admit(spec(2)).admitted

    def test_capacity_exhaustion_is_typed(self):
        m = make_manager(max_vnfs=1, inbound_mbps=30.0, outbound_mbps=30.0, coding_mbps=27.0)
        verdicts = [
            m.admit(spec(i, src="Portland", recvs=("Boston",), rate=20.0)) for i in range(1, 6)
        ]
        statuses = {v.status for v in verdicts}
        assert AdmissionStatus.ADMITTED in statuses
        assert AdmissionStatus.REJECTED_CAPACITY in statuses
        rejected = [v for v in verdicts if v.status is AdmissionStatus.REJECTED_CAPACITY]
        assert all(v.lambda_mbps < v.requested_mbps for v in rejected)
        assert all("Mbps" in v.reason for v in rejected)

    def test_duplicate_admit_raises(self):
        m = make_manager()
        m.admit(spec(1))
        with pytest.raises(ValueError):
            m.admit(spec(1))

    def test_rejected_session_leaves_no_state(self):
        m = make_manager()
        snap = m.index.canonical()
        m.admit(spec(1, src="Seattle", recvs=("Miami",), delay=5.0))
        assert m.index.canonical() == snap
        assert not m.plans and not m.sessions


class TestDeparture:
    def test_depart_costs_zero_lp_solves(self):
        m = make_manager()
        m.admit(spec(1))
        before = m.lp_solves
        released = m.depart(1)
        assert released is not None
        assert m.lp_solves == before
        assert m.active_sessions == 0

    def test_depart_retires_surplus_vnfs(self):
        m = make_manager()
        m.admit(spec(1, rate=50.0))
        assert m.index.total_vnfs > 0
        m.depart(1)
        assert m.index.total_vnfs == 0

    def test_depart_unknown_session_is_noop(self):
        m = make_manager()
        assert m.depart(42) is None

    def test_depart_restores_residuals(self):
        m = make_manager()
        snap = m.index.canonical()
        m.admit(spec(1))
        m.depart(1)
        assert m.index.canonical() == snap


class TestReplan:
    def test_replan_keeps_rate(self):
        m = make_manager()
        m.admit(spec(1))
        v = m.replan_session(1)
        assert v.status is AdmissionStatus.ADMITTED
        assert v.lambda_mbps == pytest.approx(10.0)

    def test_replan_unknown_raises(self):
        m = make_manager()
        with pytest.raises(KeyError):
            m.replan_session(7)

    def test_repeated_replans_warm_start(self):
        m = make_manager()
        m.admit(spec(1))
        m.replan_session(1)
        hits_before = m.warm_hits
        m.replan_session(1)
        assert m.warm_hits > hits_before


class TestSolverFault:
    """A failed solve is named as the solver's fault, not read as residual capacity."""

    @staticmethod
    def fail_every_solve(monkeypatch: pytest.MonkeyPatch) -> None:
        def fail(program, *args, **kwargs) -> SimplexResult:
            return SimplexResult(np.zeros(program._cost.shape[0]), 0.0, False, "iteration limit", 20000)

        monkeypatch.setattr(PreparedProgram, "solve", fail)

    def test_admit_names_the_solver_status(self, monkeypatch: pytest.MonkeyPatch):
        m = make_manager()
        self.fail_every_solve(monkeypatch)
        v = m.admit(spec(1))
        assert v.status is AdmissionStatus.REJECTED_CAPACITY and v.lambda_mbps == 0.0
        assert v.reason == "solver iteration limit after 20000 pivots"
        assert m.active_sessions == 0

    def test_replan_names_the_solver_status_and_keeps_the_routing(self, monkeypatch: pytest.MonkeyPatch):
        m = make_manager()
        m.admit(spec(1))
        tables = m.forwarding_tables()
        self.fail_every_solve(monkeypatch)
        v = m.replan_session(1)
        assert v.status is AdmissionStatus.REJECTED_CAPACITY
        assert v.reason == "solver iteration limit after 20000 pivots; previous routing kept"
        assert m.forwarding_tables() == tables and m.active_sessions == 1


class TestEpochsAndSignals:
    def test_epochs_are_monotone(self):
        m = make_manager()
        epochs = []
        for i in range(1, 4):
            epochs.append(m.admit(spec(i, src="Dallas", recvs=("Atlanta",))).epoch)
        m.depart(2)
        epochs.append(m.config_epoch)
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == len(epochs)

    def test_config_signals_carry_current_epoch(self):
        scheduler = EventScheduler()
        bus = SignalBus(scheduler)
        m = make_manager(bus=bus)
        v = m.admit(spec(1))
        tabs = bus.sent_of_kind("NcForwardTab")
        settings = bus.sent_of_kind("NcSettings")
        assert tabs and settings
        assert all(r.signal.epoch == v.epoch for r in tabs)
        assert all(r.signal.epoch == v.epoch for r in settings)
        assert bus.sent_of_kind("NcStart")

    def test_vnf_lifecycle_signals(self):
        scheduler = EventScheduler()
        bus = SignalBus(scheduler)
        m = make_manager(bus=bus)
        v = m.admit(spec(1, rate=50.0))
        starts = bus.sent_of_kind("NcVnfStart")
        assert sum(r.signal.count for r in starts) == v.vnfs_launched > 0
        m.depart(1)
        ends = bus.sent_of_kind("NcVnfEnd")
        assert len(ends) == v.vnfs_launched


class TestOverlayGeometry:
    def test_attachments_are_nearest(self):
        m = make_manager()
        near = m.attachments("Portland")
        assert near[0] == "Seattle"
        assert len(near) == 2

    def test_attachments_unknown_city(self):
        m = make_manager()
        with pytest.raises(KeyError):
            m.attachments("Gotham")

    def test_candidate_paths_respect_delay_bound(self):
        m = make_manager()
        tight = spec(1, src="Seattle", recvs=("Boston",), delay=18.0)
        loose = spec(2, src="Seattle", recvs=("Boston",), delay=100.0)
        tight_paths = m._candidate_paths(tight)
        loose_paths = m._candidate_paths(loose)
        assert all(p.delay_ms <= 18.0 for paths in tight_paths.values() for p in paths)
        assert sum(map(len, loose_paths.values())) >= sum(map(len, tight_paths.values()))

    def test_forwarding_tables_cover_used_dcs_only(self):
        m = make_manager()
        m.admit(spec(1))
        tables = m.forwarding_tables()
        used = {dc for dc, text in tables.items() if text}
        plan = m.plans[1]
        assert used == set(plan.datacenters(frozenset(DC_CITIES)))


class TestWholeFleetResolve:
    def test_matches_incremental_throughput(self):
        m = make_manager()
        for i, (src, recv) in enumerate(
            [("Portland", "Boston"), ("Dallas", "Atlanta"), ("Sunnyvale", "Miami")], start=1
        ):
            assert m.admit(spec(i, src=src, recvs=(recv,))).admitted
        plan = m.whole_fleet_resolve()
        assert sum(plan.lambdas.values()) == pytest.approx(m.total_throughput_mbps)
        # The big LP re-derives VNF needs; totals must agree with the index.
        assert sum(plan.vnf_counts.values()) == m.index.total_vnfs
