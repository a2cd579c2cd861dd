"""The one plan → wiring lowering (DESIGN.md "One bring-up").

``build_data_plane`` and ``plan_recovery`` used to lower link rates to
tables, skips and shares with two copies of the rule, and the copies
had drifted: the recovery copy did not clamp a merge hop's skip.  Both
now call :func:`repro.core.dataplane.lower_session`; these tests hold
the clamp and check the butterfly's hand-written wiring against it.
"""

import networkx as nx
import pytest

from repro.core.dataplane import build_data_plane, lower_session
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.healing import excised_view, plan_recovery
from repro.core.session import CodingConfig, MulticastSession
from repro.core.vnf import VnfRole
from repro.experiments.butterfly import (
    LINK_MBPS,
    RELAYS,
    SOURCE_SHARES,
    butterfly_graph,
    butterfly_wiring,
)

K = 4


def _solve(graph, session, relays):
    problem = DeploymentProblem(graph, [DataCenterSpec(name, 900, 900, 900) for name in relays], alpha=1.0)
    return problem.solve([problem.build_demand(session)])


def _nonzero_skips(wiring):
    return {
        (relay, hop): skip
        for relay, wired in wiring.relays.items()
        for hop, skip in wired.skips.items()
        if skip
    }


class TestSkipClamp:
    """The drifted copy: M→R1 carries 8 of M's 160 Mbps inflow, k = 4."""

    @pytest.fixture(scope="class")
    def witness(self):
        graph = nx.DiGraph()
        for u, v, mbps in [
            ("S", "A", 80), ("S", "B", 80), ("A", "M", 80), ("B", "M", 80),
            ("A", "R1", 40), ("B", "R1", 32), ("M", "R1", 8), ("M", "R2", 80),
        ]:  # fmt: skip
            graph.add_edge(u, v, capacity_mbps=float(mbps), delay_ms=10.0)
        session = MulticastSession(
            source="S", receivers=["R1", "R2"], max_delay_ms=250.0, coding=CodingConfig(blocks_per_generation=K)
        )
        return graph, session, _solve(graph, session, ["A", "B", "M"])

    def test_lowering_clamps_the_merge_hop_below_k(self, witness):
        graph, session, plan = witness
        rates = plan.decompositions[session.session_id].link_rates()
        assert rates[("M", "R1")] == pytest.approx(8.0) and plan.lambdas[session.session_id] == pytest.approx(80.0)
        wiring = lower_session(rates, session, ["A", "B", "M"], graph, 80.0)
        # round(4 · 152 / 160) = 4 = k would silence M toward R1.
        assert wiring.relays["M"].skips == {"R1": K - 1, "R2": 0}
        assert wiring.relays["M"].role is VnfRole.RECODER
        assert wiring.relays["A"].role is VnfRole.FORWARDER

    def test_recovery_and_data_plane_agree(self, witness):
        graph, session, plan = witness
        recovery = plan_recovery(graph, session, [], ["A", "B", "M"])
        live = build_data_plane(plan, graph, [session])
        built = live.wirings[session.session_id]
        assert recovery.wiring.relays == built.relays
        assert _nonzero_skips(built) == {("M", "R1"): K - 1}


class TestButterflyConstantsAreTheLowering:
    """The butterfly's literal wiring, checked instead of assumed."""

    @pytest.fixture(scope="class")
    def session(self):
        return MulticastSession(
            source="V1", receivers=["O2", "C2"], max_delay_ms=250.0, coding=CodingConfig(blocks_per_generation=K)
        )

    def test_literal_wiring_equals_the_lp_optimum_lowered(self, session):
        graph = butterfly_graph()
        plan = _solve(graph, session, RELAYS)
        rates = plan.decompositions[session.session_id].link_rates()
        lowered = lower_session(rates, session, RELAYS, graph, plan.lambdas[session.session_id])
        literal = butterfly_wiring(session, 70.0, SOURCE_SHARES)
        # As sets: V2's O2-before-C2 hop order and the all-RECODER roles
        # are preset data the sorted lowering does not reproduce.
        assert {r: set(w.next_hops) for r, w in literal.relays.items()} == {
            r: set(w.next_hops) for r, w in lowered.relays.items()
        }
        assert _nonzero_skips(literal) == _nonzero_skips(lowered) == {("T", "V2"): K // 2}
        assert dict(literal.source_shares) == {"O1": LINK_MBPS, "C1": LINK_MBPS}
        assert dict(lowered.source_shares) == pytest.approx(dict(literal.source_shares))
        assert literal.control_paths == lowered.control_paths
        assert lowered.lambda_mbps == pytest.approx(literal.lambda_mbps)

    @pytest.mark.parametrize("corpse", RELAYS)
    def test_each_single_corpse_plan_is_the_lowering_on_the_excised_view(self, session, corpse):
        graph = butterfly_graph()
        recovery = plan_recovery(graph, session, [corpse], RELAYS, wire_fraction=1.0, goodput_fraction=1.0)
        assert recovery.feasible and recovery.dead_nodes == (corpse,)
        survivors = [name for name in RELAYS if name != corpse]
        view = excised_view(graph, [corpse])
        rates = _solve(view, session, survivors).decompositions[session.session_id].link_rates()
        lowered = lower_session(dict(sorted(rates.items())), session, survivors, view, recovery.lp_lambda_mbps)
        assert recovery.wiring == lowered
        # Any single corpse takes the T merge with it: nothing is shaped.
        assert corpse not in lowered.relays and not _nonzero_skips(lowered)
        assert recovery.tables.keys() == lowered.relays.keys()
