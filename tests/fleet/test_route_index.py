"""Route index ≡ a from-plans rebuild; plans charge only what they route.

``FleetManager`` keeps each PoP's forwarding table as a sorted list of
route lines maintained by admit / depart / replan / adopt.  The
reference is the scan it replaced — walk every live plan and every path
for each PoP — kept here only.  After every step of a Hypothesis-made
program (joins, leaves, replans, replans whose re-solve fails and rolls
back, and a standby adopting the state mid-program) the tables must be
byte-identical to it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetManager, SessionSpec, fleet_of
from repro.fleet.capacity import RATE_EPS, FleetPlan
from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.soak import soak_datacenters
from repro.lp.simplex import SimplexResult

CITIES = ("Seattle", "Sunnyvale", "Denver", "Chicago", "Houston", "Atlanta", "New York")
DC_CITIES = ("Seattle", "Denver", "Chicago", "Houston", "New York")

Program = list[tuple[str, SessionSpec | int]]


def _scan_tables(manager: FleetManager) -> dict[str, str]:
    """The replaced implementation: rescan every live plan for every PoP."""
    tables: dict[str, str] = {}
    for dc in sorted(manager.datacenters):
        lines: set[str] = set()
        for sid in sorted(manager.plans):
            for _, path, rate in manager.plans[sid].path_rates:
                if rate <= RATE_EPS:
                    continue
                nodes = path.nodes
                for i in range(1, len(nodes) - 1):
                    if nodes[i] == dc:
                        lines.add(f"{sid}:{nodes[i - 1]}->{nodes[i + 1]}")
        tables[dc] = "\n".join(sorted(lines))
    return tables


def _assert_plan_routes_what_it_charges(plan: FleetPlan) -> None:
    routed = {edge for _, path, _ in plan.path_rates for edge in path.edges}
    assert all(rate > RATE_EPS for _, _, rate in plan.path_rates)
    assert all(rate > RATE_EPS for _, rate in plan.edge_rates)
    assert set(plan.edges()) <= routed, f"session {plan.session_id} charges an unrouted edge"


def _manager() -> FleetManager:
    # Tight quotas: capacity rejections (which must leave no route behind)
    # are reachable inside a ten-step program.
    return FleetManager(
        fleet_of(DC_CITIES, inbound_mbps=60.0, outbound_mbps=60.0, coding_mbps=54.0, max_vnfs=2)
    )


@st.composite
def programs(draw: st.DrawFn) -> Program:
    ops: Program = []
    live: list[int] = []
    sid = 0
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(("join", "join", "leave", "replan", "replan-fails", "adopt")))
        if kind == "adopt":
            ops.append(("adopt", 0))
        elif kind != "join" and live:
            victim = live[draw(st.integers(0, len(live) - 1))]
            if kind == "leave":
                live.remove(victim)
            ops.append((kind, victim))
        else:
            sid += 1
            receivers = draw(st.lists(st.sampled_from(CITIES), min_size=1, max_size=2, unique=True))
            ops.append(
                (
                    "join",
                    SessionSpec(
                        session_id=sid,
                        source_city=draw(st.sampled_from(CITIES)),
                        receiver_cities=tuple(receivers),
                        rate_mbps=draw(st.sampled_from((5.0, 10.0, 20.0))),
                        max_delay_ms=draw(st.sampled_from((16.0, 80.0))),
                    ),
                )
            )
            live.append(sid)
    return ops


def _failing_solve(lp):
    return SimplexResult(np.zeros(1), 0.0, False, "infeasible"), None


class TestRouteIndex:
    @settings(max_examples=60, deadline=None)
    @given(program=programs())
    def test_tables_match_a_from_plans_rebuild_after_every_step(self, program: Program):
        manager = _manager()
        for kind, payload in program:
            if kind == "join":
                assert isinstance(payload, SessionSpec)
                manager.admit(payload)
            elif kind == "leave":
                manager.depart(int(payload))  # type: ignore[arg-type]
            elif kind == "adopt":
                successor = _manager()
                successor.adopt_state(
                    manager.sessions, manager.plans, config_epoch=manager.config_epoch, fence=1
                )
                assert successor.forwarding_tables() == manager.forwarding_tables()
                manager = successor
            elif payload in manager.plans:  # a rejected join has nothing to replan
                before = manager.forwarding_tables()
                if kind == "replan-fails":
                    manager._solve = _failing_solve  # type: ignore[method-assign]
                verdict = manager.replan_session(int(payload))  # type: ignore[arg-type]
                if kind == "replan-fails":
                    del manager._solve  # type: ignore[attr-defined]
                    assert not verdict.admitted and "previous routing kept" in verdict.reason
                    assert manager.forwarding_tables() == before
            assert manager.forwarding_tables() == _scan_tables(manager)
            for plan in manager.plans.values():
                _assert_plan_routes_what_it_charges(plan)
        for sid in list(manager.plans):
            manager.depart(sid)
        assert set(manager.forwarding_tables().values()) == {""}

    def test_every_soak_plan_routes_what_it_charges(self):
        # One "is this rate zero" threshold: what a plan charges to the
        # surplus index (and which PoPs it touches) is exactly what the
        # forwarding tables route.  Checked on every plan of every soak seed.
        checked = 0
        for seed in range(30):
            trace = ChurnTrace.generate(
                seed,
                duration_s=40.0,
                arrival_rate_per_s=1.5,
                mean_holding_s=15.0,
                delay_choices_ms=(16.0, 80.0),
            )
            manager = FleetManager(soak_datacenters(5))
            for event in trace.events:
                if event.kind != JOIN:
                    manager.depart(event.session_id)
                elif manager.admit(event.spec).admitted:
                    plan = manager.plans[event.session_id]
                    _assert_plan_routes_what_it_charges(plan)
                    dcs = set(plan.datacenters(frozenset(manager.datacenters)))
                    assert dcs == set(plan.routes()), "a touched PoP must get a route"
                    checked += 1
            assert manager.forwarding_tables() == _scan_tables(manager)
        assert checked > 100
