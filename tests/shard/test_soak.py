"""Sharded chaos soak: complete-or-typed under controller crashes."""

import hashlib
import json

import pytest

from repro import soak
from repro.fleet.manager import COLD
from repro.shard.soak import run_shard_soak
from repro.soak import COMPLETE, TYPED, is_violation, run_soak, summarize

SEEDS = range(4)  # tier-1 digest; the CI soak matrix runs the 20-seed CLI


@pytest.fixture(scope="module")
def outcomes():
    return [run_shard_soak(seed) for seed in SEEDS]


def test_every_seed_ends_complete_or_typed(outcomes):
    for outcome in outcomes:
        assert outcome.outcome in (COMPLETE, TYPED), (outcome.seed, outcome.outcome)
        assert not is_violation(outcome)


def test_every_join_got_exactly_one_typed_verdict(outcomes):
    # The outcome labels already require typed == joins; cross-check the
    # verdict ledger against the event ledger: each of the trace's
    # events is either a join (one typed verdict) or a landed leave.
    for outcome in outcomes:
        typed = (
            outcome.admitted
            + outcome.rejected_capacity
            + outcome.rejected_infeasible
            + outcome.rejected_unavailable
        )
        # Every trace event is a join (one typed verdict) or a leave;
        # the only leaves that don't land are those cancelling a join
        # that itself ended rejected-unavailable, so the ledgers bound
        # each other and every *admitted* session demonstrably departed.
        assert typed + outcome.departed <= outcome.events
        assert outcome.events - (typed + outcome.departed) <= outcome.rejected_unavailable
        assert outcome.departed >= outcome.admitted
        assert outcome.admitted > 0  # the soak actually admits load


def test_fleet_drains_to_zero(outcomes):
    for outcome in outcomes:
        assert outcome.final_sessions == 0
        assert outcome.final_vnfs == 0
        assert outcome.stranded == 0


def test_crashes_actually_happen_and_are_survived(outcomes):
    # Across the digest seeds at least one controller crash fires; every
    # run still converges (previous assertions), proving survivability.
    assert sum(o.controller_crashes for o in outcomes) > 0
    assert any(o.takeovers > 0 or o.retries > 0 for o in outcomes)


def test_replay_is_bit_identical():
    # Whole-record equality, not just the digest: every counter the
    # record carries (retries, fences, stale rejections) replays.
    first = run_shard_soak(0)
    again = run_shard_soak(0)
    assert first.fingerprint and first.fingerprint == again.fingerprint
    assert first == again


def test_cold_mode_reaches_identical_fingerprints():
    # The oracle the sharded plane never had: every manager rebuilds its
    # index before every event, compiles every shape afresh and solves
    # without a remembered basis.  Seeds 33 and 36 are the witnesses that
    # failed while a verdict hashed repr(λ) (a join admitted at
    # 19.999999999999993 incrementally and 20.0 cold).  The digest was recorded at the
    # parent of the PR that put λ on the fingerprint grid, by hashing the
    # parent's raw verdicts through the new quantiser (it moved seeds 28,
    # 33 and 36, the ones whose λ carried float dust).
    seeds = range(40)
    incremental = [run_shard_soak(seed).fingerprint for seed in seeds]
    cold = [run_shard_soak(seed, mode=COLD).fingerprint for seed in seeds]
    assert [s for s, a, b in zip(seeds, incremental, cold) if a != b] == []
    pinned = "405a3f0bbc3724184e5aa9575f6166dece3160df282d3368c5f622579b2b2dc3"
    assert hashlib.sha256("".join(incremental).encode()).hexdigest() == pinned


def test_cli_sweeps_the_cold_oracle_with_the_fleet_soaks_flag(tmp_path):
    documents = []
    for mode in ("incremental", "cold"):
        path = tmp_path / f"{mode}.json"
        assert soak.main(["shard", "--seeds", "2", "--mode", mode, "--json", str(path)]) == 0
        documents.append(json.loads(path.read_text()))
    assert documents[0]["records"] == documents[1]["records"]


def test_crashes_change_the_run():
    with_faults = run_shard_soak(0)
    without = run_shard_soak(0, controller_faults=False)
    assert with_faults.fingerprint != without.fingerprint
    assert without.controller_crashes == 0
    assert without.takeovers == 0


def test_chaos_soak_runner_with_replay():
    summary = summarize(run_soak(run_shard_soak, range(2), replay=True))
    assert summary["seeds"] == 2
    assert summary["violations"] == []
    assert summary[COMPLETE] + summary[TYPED] == 2
    assert summary["totals"]["controller_crashes"] > 0
