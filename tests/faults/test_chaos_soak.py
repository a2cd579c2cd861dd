"""Chaos soak: ≥50 seeded random fault plans × live transfers.

The acceptance contract for the self-healing layer: every soaked
session completes at full rank or ends typed, never hangs, and replays
bit-identically per seed.  The sweep runs with replay verification on,
so a single nondeterministic observable anywhere in the
detect→replan→repair pipeline fails this file.  (Replay stability and
seed divergence as such are ``tests/test_soak.py``'s contract test,
shared by every scenario.)
"""

from functools import partial

import pytest

from repro.experiments.chaos import DATA_LINKS, run_chaos_session
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.injector import link_key
from repro.soak import COMPLETE, TYPED, run_soak, summarize

SOAK_SEEDS = range(50)


@pytest.fixture(scope="module")
def soak_outcomes():
    # replay=True runs every seed twice and records a fingerprint
    # divergence as a violation — determinism is checked for all 50
    # seeds, not a sample.
    return run_soak(run_chaos_session, SOAK_SEEDS, replay=True)


class TestSoakContract:
    def test_fifty_seeds_complete_or_fail_typed(self, soak_outcomes):
        assert len(soak_outcomes) == 50
        for outcome in soak_outcomes:
            assert outcome.outcome in (COMPLETE, TYPED), f"seed {outcome.seed}: {outcome.outcome}"

    def test_completions_land_inside_the_deadline(self, soak_outcomes):
        for outcome in soak_outcomes:
            if outcome.outcome == COMPLETE:
                assert outcome.finished_at is not None
                assert outcome.finished_at <= outcome.deadline_s

    def test_sweep_actually_exercises_faults(self, soak_outcomes):
        # A soak that never injects anything proves nothing.
        summary = summarize(soak_outcomes)
        assert summary["totals"]["applied_faults"] > 50
        assert any(o.dead_nodes for o in soak_outcomes)  # some daemon outages blow the deadline
        assert not summary["violations"]

    def test_full_rank_means_every_generation(self, soak_outcomes):
        for outcome in soak_outcomes:
            if outcome.outcome == COMPLETE:
                assert all(
                    count == outcome.total_generations for count in outcome.decoded.values()
                )


class TestDirtySoak:
    """Dirty-wire soak: the corruption/duplication/blackhole menu on.

    The CI ``--impairments`` batch runs a wider sweep; this is the
    in-tree slice that keeps the dirty menu honest — same contracts as
    the clean soak (terminate typed, replay bit-identically), plus the
    guarantee that corruption never pollutes a completed decode (a
    polluted generation would decode to wrong bytes at full rank, which
    the transfer-level checks downstream would flag as completed-but-
    wrong; here the typed-outcome contract is the gate).
    """

    def test_dirty_seeds_complete_or_fail_typed_and_replay(self):
        outcomes = run_soak(partial(run_chaos_session, impairments=True), range(8), replay=True)
        for outcome in outcomes:
            assert outcome.outcome in (COMPLETE, TYPED), f"dirty seed {outcome.seed}: {outcome.outcome}"

    def test_dirty_menu_is_actually_drawn(self):
        dirty_kinds = {FaultKind.LINK_CORRUPT, FaultKind.LINK_DUPLICATE,
                       FaultKind.LINK_BLACKHOLE}
        seen = set()
        for seed in range(12):
            plan = FaultPlan.random(seed, duration_s=2.0, links=DATA_LINKS,
                                    daemons=("T",), max_faults=4, impairments=True)
            seen |= {e.kind for e in plan}
        assert seen & dirty_kinds

    def test_impairments_default_off_leaves_fingerprints_alone(self):
        # run_chaos_session with the flag off must be byte-for-byte the
        # run it was before impairments existed.
        assert run_chaos_session(11).fingerprint == \
            run_chaos_session(11, impairments=False).fingerprint


class TestAdversarialPlans:
    def test_forward_tab_drop_during_recovery_still_terminates(self):
        # Kill T's daemon long enough for a death verdict, and eat the
        # next forwarding-table push: recovery is applied with stale
        # routes and the ARQ layer has to carry the session.
        plan = FaultPlan(
            [
                FaultEvent(0.5, FaultKind.DAEMON_KILL, "T"),
                FaultEvent(0.9, FaultKind.SIGNAL_DROP, "NcForwardTab"),
                FaultEvent(1.2, FaultKind.DAEMON_RESTART, "T"),
            ]
        )
        outcome = run_chaos_session(21, plan=plan)
        assert outcome.outcome in (COMPLETE, TYPED)
        assert outcome.dead_nodes == ("T",)

    def test_reverse_path_flap_is_absorbed(self):
        # Flap the C1->V1 data link; its reverse control link stays up,
        # so ACKs keep flowing and the transfer completes.
        plan = FaultPlan(
            [
                FaultEvent(0.4, FaultKind.LINK_DOWN, link_key("V1", "C1")),
                FaultEvent(0.8, FaultKind.LINK_UP, link_key("V1", "C1")),
            ]
        )
        outcome = run_chaos_session(22, plan=plan)
        assert outcome.outcome == COMPLETE

    def test_pools_cover_the_whole_butterfly(self):
        assert len(DATA_LINKS) == 9
