"""Extra controller coverage: empty-state behaviour."""

import numpy as np
import pytest

from repro.cloud import CloudProvider, DataCenter
from repro.core import Controller, MulticastSession
from repro.core.deployment import DataCenterSpec

RELAYS = ["O1", "C1", "T", "V2"]


@pytest.fixture
def controller(butterfly_graph, scheduler):
    providers = {
        name: CloudProvider(f"p-{name}", scheduler, [DataCenter(name)], rng=np.random.default_rng(2))
        for name in RELAYS
    }
    return Controller(
        butterfly_graph.copy(),
        [DataCenterSpec(n, 900, 900, 900) for n in RELAYS],
        scheduler,
        alpha=1.0,
        providers=providers,
    )


class TestEmptyState:
    def test_totals_on_fresh_controller(self, controller):
        assert controller.total_throughput_mbps() == 0.0
        assert controller.total_vnfs() == 0
        assert controller.required_vnf_counts() == {n: 0 for n in RELAYS}
        assert controller.forwarding_tables() == {}
        assert controller.achieved_total_throughput_mbps() == 0.0

    def test_reconcile_noop_on_empty(self, controller):
        actions = controller.reconcile_fleet()
        assert actions == {"launched": 0, "reused": 0, "retired": 0}

    def test_resolve_all_with_no_sessions(self, controller):
        plan = controller.resolve_all()
        assert plan.total_throughput_mbps == 0.0


class TestProblemFactory:
    def test_alpha_override(self, controller):
        assert controller.problem().alpha == 1.0
        assert controller.problem(alpha=50.0).alpha == 50.0

    def test_graph_is_live_view(self, controller):
        # problem() must see measurement updates applied to the graph.
        controller.observe_link(("T", "V2"), bandwidth_mbps=1.0)
        session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
        problem = controller.problem()
        demand = problem.build_demand(session)
        plan = problem.solve([demand])
        # With T->V2 crushed to 1 Mbps, the 70 Mbps optimum is gone.
        assert plan.lambdas[session.session_id] < 40.0


class TestRunningCounts:
    def test_pending_vms_do_not_carry_traffic(self, controller, scheduler):
        session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
        controller.add_session(session)
        # VMs are PENDING: usable for planning, not for carrying.
        assert controller.total_vnfs() >= 4
        assert sum(controller.running_vnf_counts().values()) == 0
        scheduler.run(until=60.0)
        assert sum(controller.running_vnf_counts().values()) >= 4
