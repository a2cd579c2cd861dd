"""Scenario presets and adaptive soak: wiring, determinism, contracts."""

from functools import partial

import pytest

from repro.adapt.controller import AdaptPolicy, AdaptState
from repro.adapt.soak import classify, run_adapt_session
from repro.experiments.scenarios import (
    GEO_SATELLITE,
    IOT_RELAY_CHAIN,
    PRESETS,
    ScenarioPreset,
    run_scenario,
    tcp_baseline_mbps,
)
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.soak import COMPLETE, TYPED, run_soak, summarize

DURATION = 4.0


def _observables(result):
    return (
        result.goodput_mbps,
        result.decoded_generations,
        result.sent_generations,
        result.nacks_sent,
        result.nacks_suppressed,
        result.retunes_pushed,
        result.retunes_applied,
        result.final_extra,
        result.final_blocks,
        tuple((t, s.value) for t, s in result.transitions),
    )


class TestPresets:
    def test_registry_covers_both_profiles(self):
        assert set(PRESETS) == {"geo-satellite", "iot-relay-chain"}

    def test_geo_has_geostationary_delay(self):
        assert GEO_SATELLITE.one_way_delay_s == pytest.approx(0.25)
        assert GEO_SATELLITE.loss_correlation >= 0.5  # correlated fades

    def test_iot_chain_is_multi_hop(self):
        assert len(IOT_RELAY_CHAIN.relays) == 3
        assert len(IOT_RELAY_CHAIN.lossy_hops) == 4  # every hop lossy

    def test_per_hop_loss_composes_to_end_to_end(self):
        p = IOT_RELAY_CHAIN.per_hop_loss(0.3)
        assert 1 - (1 - p) ** len(IOT_RELAY_CHAIN.lossy_hops) == pytest.approx(0.3)
        assert GEO_SATELLITE.per_hop_loss(0.0) == 0.0
        with pytest.raises(ValueError):
            GEO_SATELLITE.per_hop_loss(1.5)


class TestRunScenario:
    def test_adaptive_raises_redundancy_under_loss(self):
        result = run_scenario(IOT_RELAY_CHAIN, "adaptive", 0.2, DURATION, seed=3)
        assert result.retunes_pushed > 0
        assert result.final_extra > 0
        assert result.retunes_applied > 0  # the relays crossed boundaries
        assert result.decoded_generations > 0

    def test_fixed_mode_never_retunes(self):
        result = run_scenario(IOT_RELAY_CHAIN, "fixed", 0.2, DURATION, seed=3)
        assert result.retunes_pushed == 0
        assert result.retunes_applied == 0
        assert result.final_extra == 1  # NC1 static

    def test_adaptive_beats_fixed_at_hostile_loss(self):
        adaptive = run_scenario(IOT_RELAY_CHAIN, "adaptive", 0.2, DURATION, seed=3)
        fixed = run_scenario(IOT_RELAY_CHAIN, "fixed", 0.2, DURATION, seed=3)
        assert adaptive.goodput_mbps > fixed.goodput_mbps

    def test_seeded_replay_is_bit_identical(self):
        a = run_scenario(GEO_SATELLITE, "adaptive", 0.15, DURATION, seed=11)
        b = run_scenario(GEO_SATELLITE, "adaptive", 0.15, DURATION, seed=11)
        assert _observables(a) == _observables(b)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(GEO_SATELLITE, "turbo", 0.0, 1.0)

    def test_tcp_baseline_collapses_under_loss(self):
        clean = tcp_baseline_mbps(GEO_SATELLITE, 0.0, DURATION)
        lossy = tcp_baseline_mbps(GEO_SATELLITE, 0.15, DURATION)
        assert lossy < clean / 2  # the 500 ms RTT makes loss brutal


class TestAdaptSoak:
    def test_session_outcome_is_typed(self):
        outcome = run_adapt_session(0, preset=IOT_RELAY_CHAIN, duration_s=DURATION)
        assert outcome.outcome in (COMPLETE, TYPED)
        assert outcome.fingerprint

    def test_reporter_kill_exercises_stall_fallback(self):
        # A scripted plan: kill the reporter for longer than the 2 s
        # report timeout, then bring it back.
        plan = FaultPlan(
            [
                FaultEvent(1.0, FaultKind.DAEMON_KILL, "reporter"),
                FaultEvent(4.5, FaultKind.DAEMON_RESTART, "reporter"),
            ]
        )
        result = run_scenario(
            GEO_SATELLITE, "adaptive", 0.15, duration_s=7.0, seed=5, plan=plan
        )
        states = [s for _, s in result.transitions]
        assert AdaptState.ADAPT_STALLED in states
        # Stall pushed the static baseline; the revived feed re-entered
        # TRACKING before the end-of-run teardown (STOPPED).
        assert states[-1] is AdaptState.STOPPED
        assert states[-2] is AdaptState.TRACKING
        assert result.stall_entries >= 1
        outcome = classify(5, result)
        assert outcome.stall_entries >= 1 and outcome.applied_faults == 2  # the typed evidence
        assert outcome.outcome in (COMPLETE, TYPED)

    def test_soak_replay_and_summary(self):
        outcomes = run_soak(
            partial(run_adapt_session, preset=IOT_RELAY_CHAIN, duration_s=DURATION),
            range(2),
            replay=True,
        )
        summary = summarize(outcomes)
        assert summary["seeds"] == 2
        assert summary["violations"] == []
        assert summary[COMPLETE] + summary[TYPED] == 2
        assert summary["totals"]["sent_generations"] >= summary["totals"]["decoded_generations"] > 0


# -- the preset acceptance test (ROADMAP "Finish one harness" (2)) --------------
# Everything a new chain needs is the data between the two markers; the
# harness (`build_chain`, `chain_wiring`, `bring_up`, `run_scenario`) is
# untouched.  The line count is recorded in ROADMAP.md.

# preset-begin
HOPS = 7
#: comnetsemu's ``multihop_topo.py``: n hosts in a row, a coding VNF on
#: every host between client and server, UDP redirected hop by hop.
MULTIHOP_CHAIN = ScenarioPreset(
    name="comnetsemu-multihop",
    nodes=tuple(f"h{i}" for i in range(1, HOPS + 2)),
    hop_delay_ms=(1.0,) * HOPS,
    lossy_hops=(),
    loss_correlation=0.0,
    capacity_mbps=10.0,
    data_rate_mbps=2.0,
    block_bytes=1024,
    blocks_per_generation=8,
    policy=AdaptPolicy(),
)
# preset-end


class TestPresetAcceptance:
    def test_a_longer_chain_is_preset_data_and_every_generation_decodes(self):
        result = run_scenario(MULTIHOP_CHAIN, "fixed", 0.0, DURATION, seed=1)
        assert len(result.daemons) == len(MULTIHOP_CHAIN.relays) == HOPS - 1  # one VNF host per hop
        # Clean link: no repair traffic, and every generation sent decoded,
        # in order, but for the few in flight when the horizon fell (a 33 ms
        # generation clock against 7 ms of propagation + 7 store-and-forwards).
        assert result.nacks_sent == 0 and result.repair_packets == 0
        decoded = result.decoded_generations
        assert sorted(result.receiver.completed) == list(range(decoded))
        assert decoded > 100 and 0 <= result.sent_generations - decoded <= 3
        assert result.goodput_mbps == pytest.approx(MULTIHOP_CHAIN.data_rate_mbps, rel=0.05)
