"""Full control-path integration: signals configure the data plane."""

import pytest

from repro.core.deployment import DataCenterSpec
from repro.core.orchestrator import Orchestrator
from repro.core.session import MulticastSession
from repro.core.vnf import VnfRole

RELAYS = ["O1", "C1", "T", "V2"]


@pytest.fixture(scope="module")
def orchestration():
    from repro.experiments.butterfly import butterfly_graph

    orchestrator = Orchestrator(
        butterfly_graph(),
        [DataCenterSpec(n, 900, 900, 900) for n in RELAYS],
        alpha=1.0,
        seed=4,
    )
    session = MulticastSession(source="V1", receivers=["O2", "C2"], max_delay_ms=250.0)
    deployed = orchestrator.deploy([session])
    deployed.run(2.5)
    return session, deployed


class TestSignalChain:
    def test_settings_and_tables_sent(self, orchestration):
        _, deployed = orchestration
        assert len(deployed.bus.sent_of_kind("NcSettings")) == 4  # one per relay
        assert len(deployed.bus.sent_of_kind("NcForwardTab")) == 4
        assert len(deployed.bus.sent_of_kind("NcStart")) == 1

    def test_daemons_brought_functions_up(self, orchestration):
        _, deployed = orchestration
        assert all(d.function_running for d in deployed.daemons.values())

    def test_roles_configured_by_signal(self, orchestration):
        session, deployed = orchestration
        roles = {name: vnfs[0].roles[session.session_id] for name, vnfs in deployed.deployment.vnfs.items()}
        assert roles["T"] is VnfRole.RECODER
        assert roles["O1"] is VnfRole.FORWARDER

    def test_shapes_configured_by_signal(self, orchestration):
        session, deployed = orchestration
        t = deployed.deployment.vnfs["T"][0]
        assert "V2" in t._hop_shapes[session.session_id]

    def test_tables_configured_by_signal(self, orchestration):
        session, deployed = orchestration
        v2 = deployed.deployment.vnfs["V2"][0]
        assert set(v2.forwarding_table.next_hops(session.session_id)) == {"O2", "C2"}

    def test_source_started_by_nc_start(self, orchestration):
        session, deployed = orchestration
        source = deployed.deployment.sources[session.session_id]
        assert source.sent_generations > 0

    def test_promised_rate_survives_signalling(self, orchestration):
        session, deployed = orchestration
        measured = deployed.session_throughput_mbps(session.session_id, start_s=0.8)
        promised = deployed.plan.lambdas[session.session_id] * 0.95
        assert measured > 0.8 * promised

    def test_function_start_latency_respected(self, orchestration):
        _, deployed = orchestration
        for daemon in deployed.daemons.values():
            for member in daemon.members:
                # Coding functions came up after the ~376 ms start plus
                # the control-plane latency.
                assert member.started_at >= 0.37
