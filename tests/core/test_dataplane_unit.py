"""Unit-level tests for plan instantiation details."""

import pytest

from repro.core.dataplane import build_data_plane
from repro.core.deployment import DataCenterSpec, DeploymentPlan, DeploymentProblem
from repro.core.session import MulticastSession
from repro.core.vnf import VnfRole


@pytest.fixture
def solved(butterfly_graph):
    problem = DeploymentProblem(
        butterfly_graph, [DataCenterSpec(n, 900, 900, 900) for n in ["O1", "C1", "T", "V2"]], alpha=1.0
    )
    session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
    plan = problem.solve([problem.build_demand(session)])
    return butterfly_graph, session, plan


class TestConstruction:
    def test_only_used_links_materialize(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        data_links = [(u, v) for (u, v) in live.topology.links if (u, v) in graph.edges]
        used = {e for e, r in plan.decompositions[session.session_id].link_rates().items() if r > 1e-9}
        assert set(data_links) == used

    def test_reverse_control_links_added(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        assert ("O2", "V2") in live.topology.links or ("O2", "O1") in live.topology.links

    def test_roles_follow_merge_structure(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        roles = {name: vnfs[0].roles[session.session_id] for name, vnfs in live.vnfs.items()}
        # T merges two flows; the others see a single incoming flow.
        assert roles["T"] is VnfRole.RECODER
        assert roles["O1"] is VnfRole.FORWARDER
        assert roles["C1"] is VnfRole.FORWARDER

    def test_forwarding_tables_match_flows(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        sid = session.session_id
        assert set(live.vnfs["V2"][0].forwarding_table.next_hops(sid)) == {"O2", "C2"}
        assert live.vnfs["T"][0].forwarding_table.next_hops(sid) == ["V2"]

    def test_shaping_only_at_constricted_hops(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        sid = session.session_id
        assert "V2" in live.vnfs["T"][0]._hop_shapes[sid]
        assert not live.vnfs["O1"][0]._hop_shapes[sid]  # 1:1 relay, no shaping

    def test_source_shares_scaled(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session], rate_fraction=0.5)
        source = live.sources[session.session_id]
        assert sum(s.rate_mbps for s in source.shares) == pytest.approx(70.0 * 0.5)
        assert source.data_rate_mbps == pytest.approx(35.0)

    def test_unknown_session_throughput_raises(self, solved):
        graph, session, plan = solved
        live = build_data_plane(plan, graph, [session])
        with pytest.raises(KeyError):
            live.session_throughput_mbps(9999)

    def test_zero_rate_session_skipped(self, butterfly_graph):
        # A plan with no routed flow produces an empty (but valid) deployment.
        session = MulticastSession(source="V1", receivers=["O2"], max_delay_ms=250.0)
        plan = DeploymentPlan(lambdas={session.session_id: 0.0}, decompositions={})
        live = build_data_plane(plan, butterfly_graph, [session])
        assert live.sources == {}
        assert live.receivers == {}
