"""Fleet churn soak: 30 seeded traces, replay-fingerprinted.

The control-plane acceptance contract, mirroring the chaos soak in
``tests/faults/test_chaos_soak.py``: every join ends in a typed
verdict, every trace drains the fleet back to empty, and replaying a
seed reproduces a bit-identical SHA-256 fingerprint.  A single
nondeterministic observable anywhere in the admit→plan→deploy path
fails this file.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.fleet import COLD, run_fleet_soak
from repro.soak import COMPLETE, TYPED, is_violation, run_soak, summarize

SOAK_SEEDS = 30
EQUIVALENCE_SEEDS = range(120)
#: SHA-256 over those seeds' fingerprints.  First recorded at the parent of
#: the PR that put λ on the fingerprint grid by hashing the parent's raw
#: verdicts through the new quantiser — before the basis memory changed which
#: solves are warm; that moved 14 of the 120 (the seeds whose λ carried float
#: dust).  Re-pinned once when Dantzig pricing replaced Bland's rule: seed 78
#: is the only mover (its session 1 has two optimal routings at equal cost,
#: ``tests/fleet/test_degenerate_optimum.py``, and the new rule takes the
#: other; 39 admitted instead of 38).
PINNED_FINGERPRINTS = "a99d75318005c0c2926201b694f730940e72c3b51677bd5b0a394b74d106e915"


@pytest.fixture(scope="module")
def soak_outcomes():
    # replay=True runs every seed twice and records any fingerprint
    # divergence as a violation — determinism is checked for all 30
    # seeds, not a sample.
    return run_soak(run_fleet_soak, range(SOAK_SEEDS), replay=True)


class TestSoakContract:
    def test_thirty_seeds_complete_or_typed(self, soak_outcomes):
        assert len(soak_outcomes) == SOAK_SEEDS
        for outcome in soak_outcomes:
            assert outcome.outcome in (COMPLETE, TYPED), (
                f"seed {outcome.seed}: {outcome.outcome}"
            )

    def test_every_join_gets_a_typed_verdict(self, soak_outcomes):
        for outcome in soak_outcomes:
            joins = outcome.admitted + outcome.rejected_capacity + outcome.rejected_infeasible
            assert joins + outcome.departed == outcome.events

    def test_fleet_drains_to_empty(self, soak_outcomes):
        for outcome in soak_outcomes:
            assert outcome.final_sessions == 0
            assert outcome.final_vnfs == 0

    def test_sweep_actually_exercises_contention(self, soak_outcomes):
        # A soak where every join sails through proves nothing about
        # the rejection paths; both typed-rejection kinds must fire
        # somewhere in the sweep, and sessions must overlap.
        summary = summarize(soak_outcomes)
        assert summary["totals"]["admitted"] > 100
        assert summary["totals"]["rejected_capacity"] > 0
        assert summary["totals"]["rejected_infeasible"] > 0
        assert summary["violations"] == []
        assert max(o.peak_sessions for o in soak_outcomes) >= 5

    def test_warm_starts_fire_during_the_soak(self, soak_outcomes):
        assert summarize(soak_outcomes)["totals"]["lp_solves"] > 0


class TestSoakDeterminism:
    def test_fingerprint_is_stable_across_reruns(self):
        # Whole-record equality: warm_hits / lp_solves are solver
        # internals the fingerprint deliberately leaves out, and they
        # must replay too.
        first = run_fleet_soak(11)
        second = run_fleet_soak(11)
        assert first.fingerprint == second.fingerprint
        assert first == second

    def test_cold_mode_reaches_identical_fingerprints(self, soak_outcomes):
        # The cold whole-rebuild mode is the oracle: same trace, same
        # verdicts, same final state — so the replay fingerprint (which
        # hashes verdicts, index state, and epoch, but not solver
        # internals) must match the incremental one bit for bit.  Seeds 27
        # and 87 are the witnesses that failed while a verdict hashed
        # repr(λ): session 41 rejected-capacity both ways at
        # 15.555555555555571 incrementally and 15.5555555555556 after a cold
        # rebuild, session 57 admitted at 20.0 and 20.000000000000004.
        incremental = [outcome.fingerprint for outcome in soak_outcomes]
        incremental += [run_fleet_soak(seed).fingerprint for seed in EQUIVALENCE_SEEDS[SOAK_SEEDS:]]
        cold = [run_fleet_soak(seed, mode=COLD).fingerprint for seed in EQUIVALENCE_SEEDS]
        assert [s for s, a, b in zip(EQUIVALENCE_SEEDS, incremental, cold) if a != b] == []
        assert hashlib.sha256("".join(incremental).encode()).hexdigest() == PINNED_FINGERPRINTS

    def test_incomplete_is_never_silently_dropped(self):
        # The violation tag is load-bearing for the CI gate: a fleet run
        # that blows up mid-sweep is recorded and counted, and the seeds
        # around it still run.
        records = run_soak(lambda seed: run_fleet_soak(seed, mode="bogus" if seed == 1 else COLD), range(3))
        assert [is_violation(r) for r in records] == [False, True, False]
        assert records[1].outcome.startswith("incomplete-untyped: ValueError")
        assert summarize(records)["violations"] == [1]
