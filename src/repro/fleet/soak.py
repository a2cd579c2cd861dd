"""Seeded churn soak with SHA-256 replay fingerprints.

Every soak run is summarized into a canonical tuple — one record per
churn event (time, kind, session, typed outcome, achieved rate, config
epoch) plus the final surplus-index state — and hashed.  Replaying the
same seed must produce a bit-identical fingerprint; any divergence
means a nondeterminism bug in the admission path, which is exactly the
class of failure that silently corrupts fleet experiments.

The contract is *complete-or-typed*: every join ends in a typed
verdict, every leave drains, and the fleet returns to empty when the
trace does.  An exception (recorded by the :mod:`repro.soak` runner) or
a non-empty fleet at the end is a violation the tests fail on, never a
shrug.  ``python -m repro.soak fleet`` sweeps it.
"""

from __future__ import annotations

import argparse
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.fleet.capacity import FleetDataCenter
from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import INCREMENTAL, FleetManager, fleet_of
from repro.fleet.verdict import AdmissionStatus, AdmissionVerdict
from repro.soak import SoakRecord, fingerprint, outcome_of

#: Spread PoPs used as default soak data centers.
SOAK_DC_CITIES: tuple[str, ...] = (
    "Seattle",
    "Sunnyvale",
    "Denver",
    "Chicago",
    "Houston",
    "Atlanta",
    "New York",
    "Washington",
)

#: One seed's churn: Poisson arrivals, exponential holding.
ARRIVAL_RATE_PER_S = 1.5
MEAN_HOLDING_S = 15.0


@dataclass(frozen=True)
class FleetSoakRecord(SoakRecord):
    """One seed's soak result, summarized for aggregation and JSON."""

    events: int
    admitted: int
    rejected_capacity: int
    rejected_infeasible: int
    departed: int
    final_sessions: int
    final_vnfs: int
    peak_sessions: int
    warm_hits: int
    lp_solves: int


def soak_datacenters(n: int) -> list[FleetDataCenter]:
    """The first ``n`` soak PoPs (clamped to 1..all), with tight quotas."""
    cities = SOAK_DC_CITIES[: max(1, min(n, len(SOAK_DC_CITIES)))]
    return fleet_of(cities, inbound_mbps=120.0, outbound_mbps=120.0, coding_mbps=108.0, max_vnfs=2)


def admission_tally(verdicts: Iterable[AdmissionVerdict]) -> Counter[AdmissionStatus]:
    return Counter(verdict.status for verdict in verdicts)


def admission_outcome(tally: Counter[AdmissionStatus], trace: ChurnTrace, drained: bool) -> str:
    """Complete-or-typed over a churn trace: one verdict per join, fleet drained."""
    joins = sum(1 for event in trace.events if event.kind == JOIN)
    typed = drained and sum(tally.values()) == joins
    return outcome_of(typed and tally[AdmissionStatus.ADMITTED] == joins, typed)


def run_fleet_soak(
    seed: int,
    *,
    n_datacenters: int = 5,
    duration_s: float = 40.0,
    mode: str = INCREMENTAL,
) -> FleetSoakRecord:
    """Drive one seeded churn trace through a fresh fleet manager.

    The delay choices include a 16 ms tier that cross-country pairs
    cannot meet and the DC quotas are deliberately tight, so typed
    rejections (both kinds) are a *normal* soak outcome — the contract
    under test is that every outcome is typed, not that every join
    succeeds.
    """
    trace = ChurnTrace.generate(
        seed,
        duration_s=duration_s,
        arrival_rate_per_s=ARRIVAL_RATE_PER_S,
        mean_holding_s=MEAN_HOLDING_S,
        delay_choices_ms=(16.0, 80.0),
    )
    manager = FleetManager(soak_datacenters(n_datacenters), mode=mode)
    records = trace.drive(manager)
    canonical: list[tuple[str, str, int, str]] = []
    live: set[int] = set()
    peak = 0
    for event, verdict in records:
        if verdict is None:
            live.discard(event.session_id)
            what = "departed"
        else:
            if verdict.admitted:
                live.add(event.session_id)
            what = repr(verdict.canonical())
        canonical.append((repr(event.time_s), event.kind, event.session_id, what))
        peak = max(peak, len(live))
    tally = admission_tally(verdict for _, verdict in records if verdict is not None)
    drained = manager.active_sessions == 0 and manager.index.total_vnfs == 0
    return FleetSoakRecord(
        seed=seed,
        outcome=admission_outcome(tally, trace, drained),
        fingerprint=fingerprint(canonical, manager.index.canonical(), manager.config_epoch),
        events=len(trace.events),
        admitted=tally[AdmissionStatus.ADMITTED],
        rejected_capacity=tally[AdmissionStatus.REJECTED_CAPACITY],
        rejected_infeasible=tally[AdmissionStatus.REJECTED_INFEASIBLE],
        departed=sum(1 for _, verdict in records if verdict is None),
        final_sessions=manager.active_sessions,
        final_vnfs=manager.index.total_vnfs,
        peak_sessions=peak,
        warm_hits=manager.warm_hits,
        lp_solves=manager.lp_solves,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("incremental", "cold"), default="incremental")
    parser.add_argument("--datacenters", type=int, default=5)


def run_seed(seed: int, args: argparse.Namespace) -> FleetSoakRecord:
    return run_fleet_soak(seed, mode=args.mode, n_datacenters=args.datacenters)
