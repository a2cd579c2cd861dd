"""``repro.soak``: the runner's own behaviour, and the contract every
registered scenario meets through the one CLI.

The contract half is parametrized over :data:`repro.soak.SCENARIOS`, so
a fifth scenario is held to replay stability, seed divergence and
single-seed reproduction by registering it — the per-scenario suites
only assert what is genuinely theirs (decode counts, drained fleets,
stall fallback, …).  The runner half injects fake scenarios: what a
crash or a replay divergence does to the sweep must not depend on any
real layer misbehaving.
"""

import json
import sys
import types
from dataclasses import dataclass
from itertools import count

import pytest

from repro import soak
from repro.fleet.soak import run_fleet_soak
from repro.shard.soak import run_shard_soak
from repro.soak import COMPLETE, TYPED, VIOLATION, SoakRecord, is_violation, run_soak, summarize

#: Flags that keep one seed cheap; the CI matrix runs the defaults.
CHEAP = {
    "session": ["--generations", "12", "--deadline", "3"],
    "fleet": ["--datacenters", "3"],
    "shard": [],
    "adapt": ["--preset", "iot-relay-chain", "--duration", "2"],
}


def _sweep(tmp_path, argv):
    """Run the CLI; return (exit code, parsed --json document)."""
    path = tmp_path / "soak.json"
    code = soak.main([*argv, "--json", str(path)])
    return code, json.loads(path.read_text())


class TestScenarioContract:
    def test_cheap_flags_cover_every_registered_scenario(self):
        assert set(CHEAP) == set(soak.SCENARIOS)

    @pytest.mark.parametrize("name", sorted(soak.SCENARIOS))
    def test_replay_stable_distinct_and_reproducible_by_start(self, tmp_path, name):
        code, full = _sweep(tmp_path, [name, "--seeds", "3", "--replay", *CHEAP[name]])
        assert code == 0, full["summary"]
        assert full["scenario"] == name
        assert full["summary"]["seeds"] == 3 and full["summary"]["violations"] == []
        assert [r["seed"] for r in full["records"]] == [0, 1, 2]
        assert all(r["outcome"] in (COMPLETE, TYPED) for r in full["records"])
        # --replay passing means each fingerprint reproduced; distinct
        # seeds must still tell themselves apart.
        fingerprints = {r["fingerprint"] for r in full["records"]}
        assert len(fingerprints) == 3 and "" not in fingerprints
        # A failing CI seed N is reproduced alone, not by re-running 0..N.
        code, one = _sweep(tmp_path, [name, "--start", "2", "--seeds", "1", *CHEAP[name]])
        assert code == 0
        assert one["records"] == [full["records"][2]]

    @pytest.mark.parametrize("run_one", [run_fleet_soak, run_shard_soak])
    def test_a_window_too_short_to_draw_any_churn_still_completes(self, run_one):
        # The shard horizon used to anchor on max() over an empty trace.
        record = run_one(0, duration_s=0.01)
        assert (record.events, record.outcome) == (0, COMPLETE)


@dataclass(frozen=True)
class FakeRecord(SoakRecord):
    packets: int
    ratio: float
    flagged: bool


def _clean(seed):
    return FakeRecord(seed, COMPLETE if seed % 2 else TYPED, f"fp-{seed}", packets=10 + seed,
                      ratio=0.5, flagged=True)


def _crash_on_one(seed):
    if seed == 1:
        raise RuntimeError("boom")
    return _clean(seed)


def _register(monkeypatch, run_one):
    """Register a fake scenario module the CLI resolves by dotted name."""
    module = types.ModuleType("fake_soak_scenario")
    module.add_arguments = lambda parser: parser.add_argument("--knob", type=int, default=0)
    module.run_seed = lambda seed, args: run_one(seed)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(soak.SCENARIOS, "fake", module.__name__)


class TestRunner:
    def test_a_crash_is_recorded_and_the_sweep_continues(self):
        records = run_soak(_crash_on_one, range(3), replay=True)
        assert [r.seed for r in records] == [0, 1, 2]
        assert records[1].outcome == f"{VIOLATION}: RuntimeError: boom"
        assert [is_violation(r) for r in records] == [False, True, False]

    def test_replay_divergence_is_a_violation_carrying_both_fingerprints(self):
        ticks = count()
        records = run_soak(
            lambda seed: FakeRecord(seed, COMPLETE, f"fp-{next(ticks)}", 7, 0.0, False),
            [5],
            replay=True,
        )
        (record,) = records
        assert is_violation(record)
        assert "replay diverged: fp-0 != fp-1" in record.outcome
        assert record.packets == 7  # the first run's counters survive

    def test_without_replay_each_seed_runs_once(self):
        calls = []
        run_soak(lambda seed: calls.append(seed) or _clean(seed), [4, 9])
        assert calls == [4, 9]

    def test_summary_folds_integer_counters_only(self):
        summary = summarize(run_soak(_crash_on_one, range(4)))
        assert summary == {
            "seeds": 4,
            COMPLETE: 1,
            TYPED: 2,
            "violations": [1],
            "totals": {"packets": 10 + 12 + 13},  # not seed, ratio or flagged
        }


class TestCli:
    def test_clean_sweep_exits_zero_with_summary_and_records(self, tmp_path, monkeypatch):
        _register(monkeypatch, _clean)
        code, doc = _sweep(tmp_path, ["fake", "--seeds", "2", "--start", "3", "--knob", "1"])
        assert code == 0
        assert doc["summary"]["seeds"] == 2 and doc["summary"]["violations"] == []
        assert doc["records"] == [
            {"seed": 3, "outcome": COMPLETE, "fingerprint": "fp-3", "packets": 13,
             "ratio": 0.5, "flagged": True},
            {"seed": 4, "outcome": TYPED, "fingerprint": "fp-4", "packets": 14,
             "ratio": 0.5, "flagged": True},
        ]

    def test_violation_exits_one_after_writing_the_json(self, tmp_path, monkeypatch, capsys):
        _register(monkeypatch, _crash_on_one)
        code, doc = _sweep(tmp_path, ["fake", "--seeds", "3", "--replay"])
        assert code == 1
        assert doc["summary"]["violations"] == [1]
        assert doc["records"][1] == {
            "seed": 1, "outcome": f"{VIOLATION}: RuntimeError: boom", "fingerprint": "",
        }
        assert "CONTRACT VIOLATION seed 1" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["nonesuch"], ["--seeds", "1", "fleet"]])
    def test_scenario_must_be_the_first_argument(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            soak.main(argv)
        assert exit_info.value.code == 2
