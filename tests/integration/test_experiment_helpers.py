"""Unit tests for experiment-harness helpers."""

import numpy as np
import pytest

from repro.experiments.butterfly import (
    BUTTERFLY_DELAYS_MS,
    BUTTERFLY_LINKS_MBPS,
    _make_session,
    _nc_source_shares,
    build_butterfly,
    butterfly_wiring,
)
from repro.experiments.dynamic import generate_sessions, region_delay_ms
from repro.rlnc.redundancy import RedundancyPolicy


class TestButterflyHelpers:
    def test_source_shares_nc0(self):
        shares = _nc_source_shares(70.0, 4, 0)
        assert shares == {"O1": pytest.approx(35.0), "C1": pytest.approx(35.0)}

    def test_source_shares_grow_with_redundancy(self):
        nc1 = _nc_source_shares(52.8, 4, 1)
        assert nc1["O1"] == pytest.approx(52.8 * 5 / 8)

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            _nc_source_shares(70.0, 4, 2)  # 70 * 6/8 = 52.5 > 35 per branch

    def test_hop_shapes(self):
        def shapes(k, extra):
            session = _make_session(k, 1024, RedundancyPolicy(extra))
            wiring = butterfly_wiring(session, 30.0, _nc_source_shares(30.0, k, extra))
            return {(relay, hop): skip for relay, wired in wiring.relays.items() for hop, skip in wired.skips.items()}

        assert shapes(4, 0) == {("T", "V2"): 2}
        assert shapes(8, 1) == {("T", "V2"): 4}
        assert shapes(1, 0) == {}

    def test_topology_delays_match_spec(self):
        topo = build_butterfly()
        for edge, delay in BUTTERFLY_DELAYS_MS.items():
            assert topo.link(*edge).delay_s == pytest.approx(delay / 1e3)

    def test_all_links_35(self):
        assert set(BUTTERFLY_LINKS_MBPS.values()) == {35.0}

    def test_direct_links_optional(self):
        without = build_butterfly(include_direct_links=False)
        with_direct = build_butterfly(include_direct_links=True)
        assert ("V1", "O2") not in without.links
        assert ("V1", "O2") in with_direct.links


class TestDynamicHelpers:
    def test_region_delay_identity(self):
        assert region_delay_ms("oregon", "oregon") == 2.0

    def test_region_delay_lookup_both_orders(self):
        assert region_delay_ms("oregon", "texas") == region_delay_ms("texas", "oregon") > 0

    def test_unknown_region_raises(self):
        with pytest.raises(KeyError):
            region_delay_ms("oregon", "mars")

    def test_generate_sessions_deterministic(self):
        a = generate_sessions(5, np.random.default_rng(9))
        b = generate_sessions(5, np.random.default_rng(9))
        assert [(s.name, s.region) for s, _, _ in a] == [(s.name, s.region) for s, _, _ in b]

    def test_receivers_range_respected(self):
        specs = generate_sessions(30, np.random.default_rng(1), receivers_range=(2, 2))
        assert all(len(receivers) == 2 for _, receivers, _ in specs)
