"""Data plane with multi-VNF data centers: the dispatcher path."""

import pytest

from repro.core.dataplane import build_data_plane
from repro.core.deployment import DataCenterSpec, DeploymentProblem
from repro.core.session import MulticastSession

RELAYS = ["O1", "C1", "T", "V2"]


class TestMultiInstance:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.experiments.butterfly import butterfly_graph

        g = butterfly_graph()
        # Small per-VNF caps force several instances per data center:
        # T carries 70 Mbps of inflow but one VNF only handles 40.
        problem = DeploymentProblem(
            g, [DataCenterSpec(n, 40, 40, 40) for n in RELAYS], alpha=0.1
        )
        session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
        plan = problem.solve([problem.build_demand(session)])
        live = build_data_plane(plan, g, [session], rate_fraction=0.95, seed=8)
        live.start()
        live.run(2.0)
        return session, plan, live

    def test_plan_needs_multiple_vnfs(self, outcome):
        _, plan, _ = outcome
        assert plan.vnfs_at("T") >= 2

    def test_dispatcher_installed(self, outcome):
        _, plan, live = outcome
        assert "T" in live.dispatchers
        assert len(live.vnfs["T"]) == plan.vnfs_at("T")

    def test_generations_stay_on_one_instance(self, outcome):
        session, _, live = outcome
        dispatcher = live.dispatchers["T"]
        assert dispatcher.dispatched > 0
        # Each instance holds recoding state for a disjoint set of
        # generations (the (session, generation) hash key).
        seen = {}
        for vnf in live.vnfs["T"]:
            for sid, relays in vnf._relays.items():
                for gen_id in relays:
                    assert (sid, gen_id) not in seen, "generation split across instances"
                    seen[(sid, gen_id)] = vnf.name
        assert seen

    def test_throughput_close_to_plan(self, outcome):
        session, plan, live = outcome
        measured = live.session_throughput_mbps(session.session_id, start_s=0.5)
        assert measured > 0.8 * plan.lambdas[session.session_id] * 0.95

    def test_instances_share_outgoing_links(self, outcome):
        _, _, live = outcome
        for vnf in live.vnfs["T"]:
            assert "V2" in vnf.neighbors()
