"""Plan → packets: the LP's promise holds at the packet level."""

import pytest

from repro.core.dataplane import build_data_plane
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.session import MulticastSession

RELAYS = ["O1", "C1", "T", "V2"]


def solve_butterfly(butterfly_graph, session):
    problem = DeploymentProblem(
        butterfly_graph, [DataCenterSpec(n, 900, 900, 900) for n in RELAYS], alpha=1.0
    )
    return problem.solve([problem.build_demand(session)])


class TestButterflyEndToEnd:
    @pytest.fixture(scope="class")
    def outcome(self):
        import networkx as nx

        from repro.experiments.butterfly import butterfly_graph

        g = butterfly_graph()
        session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
        plan = solve_butterfly(g, session)
        live = build_data_plane(plan, g, [session], rate_fraction=0.95, seed=5)
        live.start()
        live.run(2.0)
        return session, plan, live

    def test_plan_promises_70(self, outcome):
        session, plan, _ = outcome
        assert plan.lambdas[session.session_id] == pytest.approx(70.0, rel=1e-6)

    def test_packets_deliver_the_promise(self, outcome):
        session, plan, live = outcome
        measured = live.session_throughput_mbps(session.session_id, start_s=0.5)
        promised = plan.lambdas[session.session_id] * 0.95
        assert measured > 0.85 * promised

    def test_merge_point_recodes(self, outcome):
        session, plan, live = outcome
        # T merges two incoming flows: it must be a recoder with shaping.
        t_vnfs = live.vnfs["T"]
        assert all(v.roles[session.session_id].value == "recoder" for v in t_vnfs)
        assert any(shapes for v in t_vnfs for shapes in v._hop_shapes.values())

    def test_receivers_registered(self, outcome):
        session, _, live = outcome
        assert {(session.session_id, "O2"), (session.session_id, "C2")} <= set(live.receivers)


class TestUnicastChain:
    def test_single_path_uses_forwarders(self, small_graph):
        # Unicast through the diamond: each relay sees one incoming flow,
        # so the controller assigns plain forwarding (paper §IV-A).
        dcs = [DataCenterSpec(n, 900, 900, 900) for n in ("a", "b")]
        problem = DeploymentProblem(small_graph, dcs, alpha=1.0)
        session = MulticastSession(source="s", receivers=["t"], max_delay_ms=200.0)
        plan = problem.solve([problem.build_demand(session)])
        live = build_data_plane(plan, small_graph, [session], rate_fraction=0.9, seed=6)
        live.start()
        live.run(1.0)
        measured = live.session_throughput_mbps(session.session_id, start_s=0.3)
        assert measured > 0.7 * plan.lambdas[session.session_id] * 0.9
        for name, vnfs in live.vnfs.items():
            for vnf in vnfs:
                role = vnf.roles.get(session.session_id)
                if role is not None:
                    assert role.value == "forwarder"

    def test_bad_rate_fraction(self, small_graph):
        dcs = [DataCenterSpec(n, 900, 900, 900) for n in ("a", "b")]
        problem = DeploymentProblem(small_graph, dcs, alpha=1.0)
        session = MulticastSession(source="s", receivers=["t"])
        plan = problem.solve([problem.build_demand(session)])
        with pytest.raises(ValueError):
            build_data_plane(plan, small_graph, [session], rate_fraction=0.0)
