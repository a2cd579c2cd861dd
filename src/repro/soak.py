"""One seed-sweep soak harness for every layer's chaos scenario.

The paper's claims rest on repeated testbed runs (§V); ours rest on
seeded, replay-fingerprinted soaks.  The :data:`SCENARIOS` share one
contract, owned here rather than copied into each layer package:

- **complete or typed**: every seed ends :data:`COMPLETE`, or
  :data:`TYPED` (it fell short, and every shortfall is named — applied
  faults, death verdicts, typed rejections), or it is a
  :data:`VIOLATION`.  There is no fourth state: an exception in a seed
  and a replay divergence are both recorded as violations, the sweep
  carries on, and the JSON artifact is written before the exit code
  says so — a crash IS the finding, not a reason to lose the record.
- **replay bit-identically**: a seed fully determines the run.  Each
  record carries a :func:`fingerprint` over the scenario's behavioural
  observables; ``--replay`` runs every seed twice and compares.

A scenario module provides its ``run_*(seed, ...) -> SoakRecord`` plus
two CLI hooks, ``add_arguments(parser)`` for its own flags and
``run_seed(seed, args)``.  :func:`main` imports only the module asked
for, so a layer's soak never drags the other layers in::

    python -m repro.soak {session,fleet,shard,adapt} --seeds N --start S --replay --json PATH
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import partial

COMPLETE = "complete"
TYPED = "typed"
#: Crashes and replay divergences append ``": <detail>"`` to this label.
VIOLATION = "incomplete-untyped"

#: CLI name -> scenario module, resolved lazily by :func:`main`.
SCENARIOS = {
    "session": "repro.experiments.chaos",
    "fleet": "repro.fleet.soak",
    "shard": "repro.shard.soak",
    "adapt": "repro.adapt.soak",
}


@dataclass(frozen=True)
class SoakRecord:
    """One soaked seed; scenarios subclass it with their typed counters."""

    seed: int
    outcome: str
    fingerprint: str


def is_violation(record: SoakRecord) -> bool:
    return record.outcome.startswith(VIOLATION)


def outcome_of(clean: bool, typed: bool) -> str:
    """The outcome label: clean finish, typed shortfall, or violation."""
    if clean:
        return COMPLETE
    return TYPED if typed else VIOLATION


def fingerprint(*observables: object) -> str:
    """SHA-256 over the ``repr`` of a scenario's behavioural observables.

    Callers pass only values derived from the event scheduler and the
    seeded RNGs (``repr`` of a float round-trips exactly), never
    process-global counters.
    """
    return hashlib.sha256(repr(observables).encode()).hexdigest()


def run_soak(
    run_one: Callable[[int], SoakRecord], seeds: Iterable[int], replay: bool = False
) -> list[SoakRecord]:
    """Soak every seed; with ``replay``, run each twice and compare."""
    records: list[SoakRecord] = []
    for seed in seeds:
        try:
            record = run_one(seed)
            if replay and (again := run_one(seed).fingerprint) != record.fingerprint:
                diverged = f"{VIOLATION}: replay diverged: {record.fingerprint} != {again}"
                record = dataclasses.replace(record, outcome=diverged)
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            record = SoakRecord(seed, f"{VIOLATION}: {type(exc).__name__}: {exc}", "")
        records.append(record)
    return records


def summarize(records: Sequence[SoakRecord]) -> dict[str, object]:
    """Outcome counts, violating seeds, and every integer counter summed."""
    totals: dict[str, int] = {}
    for record in records:
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if field.name != "seed" and isinstance(value, int) and not isinstance(value, bool):
                totals[field.name] = totals.get(field.name, 0) + value
    return {
        "seeds": len(records),
        COMPLETE: sum(1 for r in records if r.outcome == COMPLETE),
        TYPED: sum(1 for r in records if r.outcome == TYPED),
        "violations": [r.seed for r in records if is_violation(r)],
        "totals": totals,
    }


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.soak", description="Seeded, replay-fingerprinted soak sweep"
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds to sweep")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--replay", action="store_true", help="re-run each seed and compare fingerprints")
    parser.add_argument("--json", help="write the summary and per-seed records here")
    # The scenario name comes first so its module's own flags can join
    # the one parser before the full parse.
    scenario = None
    if argv and argv[0] in SCENARIOS:
        scenario = importlib.import_module(SCENARIOS[argv[0]])
        scenario.add_arguments(parser)
    args = parser.parse_args(argv)
    if scenario is None:
        parser.error("the scenario name must be the first argument")
    run_one: Callable[[int], SoakRecord] = partial(scenario.run_seed, args=args)

    records = run_soak(run_one, range(args.start, args.start + args.seeds), replay=args.replay)
    summary = summarize(records)
    if args.json:
        per_seed = [dataclasses.asdict(record) for record in records]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"scenario": args.scenario, "summary": summary, "records": per_seed}, fh, indent=2)
    print(f"{args.scenario} soak" + (", every seed replayed" if args.replay else "") + ":")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    for record in records:
        if is_violation(record):
            print(f"CONTRACT VIOLATION seed {record.seed}: {record.outcome}")
    return 1 if summary["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
