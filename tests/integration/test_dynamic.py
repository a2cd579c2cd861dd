"""Integration tests for the six-DC dynamic scenarios (Fig. 10-13)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.scaling import ScalingConfig
from repro.experiments.dynamic import (
    DynamicScenario,
    SIX_DATACENTERS,
    alpha_sweep,
    build_six_dc_graph,
    generate_sessions,
    lmax_sweep,
    make_controller,
    region_delay_ms,
)

import numpy as np


class TestWorldConstruction:
    def test_six_datacenters(self):
        assert len(SIX_DATACENTERS) == 6

    def test_region_delay_symmetric(self):
        for a in SIX_DATACENTERS:
            for b in SIX_DATACENTERS:
                assert region_delay_ms(a, b) == region_delay_ms(b, a)

    def test_graph_attaches_endpoints(self):
        rng = np.random.default_rng(0)
        specs = generate_sessions(3, rng)
        g = build_six_dc_graph(specs, rng)
        for source, receivers, _ in specs:
            assert g.out_degree(source.name) >= 3  # 3 access DCs (+ direct links)
            for r in receivers:
                assert g.in_degree(r.name) >= 3

    def test_direct_paths_exist(self):
        rng = np.random.default_rng(0)
        specs = generate_sessions(2, rng)
        g = build_six_dc_graph(specs, rng)
        for source, receivers, _ in specs:
            for r in receivers:
                assert g.has_edge(source.name, r.name)

    def test_sessions_have_1_to_4_receivers(self):
        rng = np.random.default_rng(1)
        specs = generate_sessions(50, rng)
        counts = {len(receivers) for _, receivers, _ in specs}
        assert counts == {1, 2, 3, 4}


class TestFig10Churn:
    @pytest.fixture(scope="class")
    def series(self):
        return DynamicScenario(seed=3).run_churn(sample_interval_min=5.0)

    def test_throughput_tracks_session_count(self, series):
        by_minute = dict(zip(series["minutes"], series["throughput_mbps"]))
        assert by_minute[35.0] > by_minute[5.0]   # 6 sessions > 3 sessions
        assert by_minute[35.0] > by_minute[65.0]  # decays after departures

    def test_vnfs_grow_and_recycle(self, series):
        by_minute = dict(zip(series["minutes"], series["vnfs"]))
        assert by_minute[35.0] > by_minute[0.0]
        assert by_minute[120.0] < by_minute[35.0]  # resources recycled

    def test_throughput_stable_during_receiver_churn(self, series):
        window = [
            t for m, t in zip(series["minutes"], series["throughput_mbps"]) if 70.0 <= m <= 120.0
        ]
        assert max(window) - min(window) < 0.35 * max(window)

    def test_session_counts(self, series):
        assert max(series["sessions"]) == 6
        assert series["sessions"][-1] == 3


class TestFig11BandwidthCuts:
    @pytest.fixture(scope="class")
    def series(self):
        return DynamicScenario(seed=4).run_bandwidth_cuts(duration_min=45.0, cut_interval_min=20.0)

    def test_cut_causes_dip_then_recovery(self, series):
        thpt = series["throughput_mbps"]
        minutes = series["minutes"]
        steady = max(thpt[4:10])
        dip_window = [t for m, t in zip(minutes, thpt) if 11.0 <= m <= 19.0]
        recovered = [t for m, t in zip(minutes, thpt) if 22.0 <= m <= 29.0]
        assert min(dip_window) < 0.8 * steady        # visible dip after the cut
        assert max(recovered) > 0.95 * steady        # recovered within ~10 min

    def test_scale_out_adds_vnfs(self, series):
        vnfs = series["vnfs"]
        assert vnfs[-1] > vnfs[0]


class TestFig12Lmax:
    @pytest.fixture(scope="class")
    def sweep(self):
        return lmax_sweep([60, 75, 100, 150, 200], seed=3)

    def test_throughput_nondecreasing(self, sweep):
        t = sweep["throughput_mbps"]
        assert all(b >= a - 1e-6 for a, b in zip(t, t[1:]))

    def test_saturates(self, sweep):
        t = sweep["throughput_mbps"]
        assert t[-1] == pytest.approx(t[-2], rel=0.02)  # no growth at the top end

    def test_small_lmax_restricts(self, sweep):
        t = sweep["throughput_mbps"]
        assert t[0] < t[-1]


class TestFig13Alpha:
    @pytest.fixture(scope="class")
    def sweep(self):
        return alpha_sweep([0, 20, 50, 100, 150, 200], seed=3)

    def test_throughput_nonincreasing(self, sweep):
        t = sweep["throughput_mbps"]
        assert all(b <= a + 1e-6 for a, b in zip(t, t[1:]))

    def test_vnfs_shrink(self, sweep):
        v = sweep["vnfs"]
        assert v[-1] < v[0]

    def test_huge_alpha_refuses_vnfs(self, sweep):
        # Paper: "the system refuses to launch any new VNF when α = 200".
        assert sweep["vnfs"][-1] == 0
        assert sweep["throughput_mbps"][-1] > 0  # direct paths still carry data


_SWEEPS = """\
from repro.experiments.dynamic import alpha_sweep, lmax_sweep
for sweep in (alpha_sweep([0, 20, 100]), lmax_sweep([75, 150])):
    print(repr(sweep["throughput_mbps"]), repr(sweep["vnfs"]))
"""


def _soak_records_match(tmp_path, sweeps):
    """``python -m repro.soak <scenario> --seeds N --json`` under hash seeds 1 and 2, byte-compared."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    procs = {
        (scenario, hash_seed): subprocess.Popen(
            [sys.executable, "-m", "repro.soak", scenario, "--seeds", seeds,
             "--json", str(tmp_path / f"{scenario}-{hash_seed}.json")],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for scenario, seeds in sweeps.items()
        for hash_seed in ("1", "2")
    }
    results = {key: proc.communicate(timeout=120) for key, proc in procs.items()}
    assert all(proc.returncode == 0 for proc in procs.values()), results
    for scenario in sweeps:
        first, second = ((tmp_path / f"{scenario}-{h}.json").read_bytes() for h in ("1", "2"))
        assert first and first == second, scenario


class TestHashSeedIndependence:
    def test_fig12_fig13_sweeps_identical_under_three_hash_seeds(self):
        # The LP's link columns were once laid out in set-iteration
        # order, so the VNF counts read 22/22/4, 22/22/3, 22/20/3 under
        # PYTHONHASHSEED 1, 2, 3.  One interpreter per seed, side by side.
        src = str(Path(__file__).resolve().parents[2] / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _SWEEPS],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("1", "2", "3")
        ]
        results = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0, 0], results
        outputs = [out for out, _ in results]
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_fleet_and_shard_soak_records_identical_under_two_hash_seeds(self, tmp_path):
        # Ordering determinism as a run, not a rule: the basis memory, the
        # shape memo and every per-PoP table are ordered containers, and no
        # lint rule sees a `for` over a set that decides their order.  The
        # whole JSON record (warm_hits included) is compared byte for byte.
        _soak_records_match(tmp_path, {"fleet": "3", "shard": "2"})

    def test_session_and_adapt_soak_records_identical_under_two_hash_seeds(self, tmp_path):
        # The packet-level soaks key daemons, gates and fault targets by name too.
        _soak_records_match(tmp_path, {"session": "3", "adapt": "3"})


class TestControllerFactory:
    def test_providers_by_region(self, scheduler):
        rng = np.random.default_rng(0)
        specs = generate_sessions(1, rng)
        g = build_six_dc_graph(specs, rng)
        c = make_controller(g, scheduler=scheduler)
        assert set(c.providers) == set(SIX_DATACENTERS)
        assert c.providers["oregon"].name.startswith("ec2")
        assert c.providers["texas"].name.startswith("linode")
