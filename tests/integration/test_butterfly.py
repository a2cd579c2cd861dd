"""Integration tests on the butterfly testbed (the Fig. 6/7 setup)."""

import pytest

from repro.experiments.butterfly import (
    RECEIVERS,
    build_butterfly,
    measure_delays,
    routing_only_capacity_mbps,
    run_butterfly_nc,
    run_butterfly_non_nc,
    run_direct_tcp,
    theoretical_capacity_mbps,
)
from repro.net.loss import UniformLoss
from repro.rlnc.redundancy import RedundancyPolicy


class TestCapacities:
    def test_coding_capacity_is_70(self):
        assert theoretical_capacity_mbps() == pytest.approx(70.0)

    def test_routing_only_is_52_5(self):
        assert routing_only_capacity_mbps() == pytest.approx(52.5, rel=1e-6)

    def test_topology_builds(self):
        topo = build_butterfly()
        assert len(topo.nodes) == 7
        # 9 data links + 9 reverse control links.
        assert len(topo.links) == 18


class TestFig7Ordering:
    """NC > Non-NC > direct TCP, with NC near the max-flow bound."""

    @pytest.fixture(scope="class")
    def results(self):
        nc = run_butterfly_nc(duration_s=1.5, warmup_s=0.5)
        non_nc = run_butterfly_non_nc(duration_s=1.5, warmup_s=0.5, mode="striped")
        tcp = run_direct_tcp(duration_s=30.0)
        return nc, non_nc, tcp

    def test_nc_approaches_capacity(self, results):
        nc, _, _ = results
        assert nc.session_throughput_mbps > 0.85 * 70.0

    def test_nc_beats_non_nc(self, results):
        nc, non_nc, _ = results
        assert nc.session_throughput_mbps > non_nc.session_throughput_mbps

    def test_non_nc_beats_direct_tcp(self, results):
        _, non_nc, tcp = results
        assert non_nc.session_throughput_mbps > tcp["session"]

    def test_non_nc_near_packing_bound(self, results):
        _, non_nc, _ = results
        assert non_nc.session_throughput_mbps > 0.85 * 52.5
        assert non_nc.session_throughput_mbps <= 52.5 * 1.02

    def test_both_receivers_served(self, results):
        nc, _, _ = results
        rates = list(nc.throughput_mbps.values())
        assert max(rates) - min(rates) < 0.2 * max(rates)


class TestRobustness:
    def test_redundancy_helps_under_loss(self):
        # The redundant stream's rate is tuned to just fit the bottleneck;
        # the CRC32 header word grew the packet from 1472 to 1476 bytes,
        # so the equivalent rate is 52.6 * 1500/1504 ~= 52.46 Mb/s.
        #
        # The paper's order is asserted on every seed of a fixed set, not
        # on one sample or a median: with the measured NACK retry clock and
        # per-hop repair routing (DESIGN §9) it holds per seed.
        for seed in range(1, 9):
            nc0 = run_butterfly_nc(
                duration_s=1.5,
                rate_mbps=66.0,
                window_generations=512,
                loss_on_bottleneck=UniformLoss(0.3),
                seed=seed,
            )
            nc1 = run_butterfly_nc(
                duration_s=1.5,
                rate_mbps=52.45,
                window_generations=512,
                loss_on_bottleneck=UniformLoss(0.3),
                redundancy=RedundancyPolicy(1),
                seed=seed,
            )
            assert nc1.session_throughput_mbps > nc0.session_throughput_mbps, seed
            # The mechanism holds on every seed: one redundant packet per
            # generation saves more than 40 % of the NACK rounds.
            nc0_nacks = sum(app.nacks_sent for app in nc0.receivers.values()) / nc0.sent_generations
            nc1_nacks = sum(app.nacks_sent for app in nc1.receivers.values()) / nc1.sent_generations
            assert nc1_nacks < 0.6 * nc0_nacks, seed

    def test_redundancy_wastes_bandwidth_when_clean(self):
        nc0 = run_butterfly_nc(duration_s=1.5, rate_mbps=66.0, window_generations=1024)
        nc1 = run_butterfly_nc(
            duration_s=1.5, rate_mbps=52.6, window_generations=1024, redundancy=RedundancyPolicy(1)
        )
        assert nc0.session_throughput_mbps > nc1.session_throughput_mbps


class TestTabII:
    @pytest.fixture(scope="class")
    def delays(self):
        return measure_delays()

    def test_direct_rtts_match_paper(self, delays):
        # Tab. II: 90.88 ms to O2, 77.03 ms to C2 (±2 ms of modelling).
        assert delays["direct:O2"] == pytest.approx(90.88, abs=2.5)
        assert delays["direct:C2"] == pytest.approx(77.03, abs=2.5)

    def test_relayed_slower_than_direct(self, delays):
        for receiver in RECEIVERS:
            assert delays[f"relayed:{receiver}:wo_coding"] > delays[f"direct:{receiver}"]

    def test_coding_overhead_is_small(self, delays):
        # The paper's headline: coding adds only 0.9-1.5% over relaying.
        for receiver in RECEIVERS:
            with_coding = delays[f"relayed:{receiver}:w_coding"]
            without = delays[f"relayed:{receiver}:wo_coding"]
            overhead = (with_coding - without) / without
            assert 0.0 <= overhead < 0.04

    def test_relayed_rtt_magnitude(self, delays):
        # Paper: ~166-169 ms on the relayed paths.
        for receiver in RECEIVERS:
            assert 150.0 < delays[f"relayed:{receiver}:w_coding"] < 190.0
