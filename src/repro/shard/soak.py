"""Controller-crash chaos soak with SHA-256 replay fingerprints.

The sharded complement of :mod:`repro.fleet.soak`: a seeded Poisson
churn trace drives joins/leaves through the
:class:`~repro.shard.plane.ShardedControlPlane` on the shared event
scheduler while a seeded :class:`~repro.faults.FaultPlan` crashes and
restores controller replicas mid-flight.  The contract is the same
complete-or-typed one, hardened for failover:

- every join ends in a typed verdict — admitted, rejected-infeasible,
  rejected-capacity, or rejected-unavailable when a shard stayed
  headless through the whole retry budget; nothing hangs;
- every leave lands (retried across outages) and the fleet drains to
  zero sessions and zero VNFs at the horizon;
- the same seed replays bit-identically: verdict stream, takeover
  records, fenced gate states and retry counts all fold into one
  SHA-256 fingerprint.

``python -m repro.soak shard`` sweeps it (the CI ``soak`` matrix); an
exception mid-run is recorded as a violation by that runner.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import INCREMENTAL
from repro.fleet.soak import admission_outcome, admission_tally, soak_datacenters
from repro.fleet.verdict import AdmissionStatus
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane
from repro.soak import SoakRecord, fingerprint

#: Drain margin after the last churn event: generous enough for the
#: longest outage + detection + the full retry/backoff tail.  The
#: horizon is anchored at the trace's *actual* last event, not a
#: duration formula — exponential holding times have a tail, and a
#: leave scheduled past a formula-derived horizon would silently never
#: fire, stranding an admitted session through no fault of the plane.
DRAIN_MARGIN_S = 30.0

#: One seed's churn (Poisson arrivals, exponential holding) and its
#: controller-crash budget.
ARRIVAL_RATE_PER_S = 1.0
MEAN_HOLDING_S = 12.0
MAX_FAULTS = 3


@dataclass(frozen=True)
class ShardSoakRecord(SoakRecord):
    """One seed's sharded soak, summarized for aggregation and JSON."""

    shards: int
    events: int
    admitted: int
    rejected_capacity: int
    rejected_infeasible: int
    rejected_unavailable: int
    departed: int
    controller_crashes: int
    takeovers: int
    max_fence: int
    stale_rejected: int
    retries: int
    stranded: int
    final_sessions: int
    final_vnfs: int


def run_shard_soak(
    seed: int,
    *,
    k: int = 3,
    n_datacenters: int = 8,
    duration_s: float = 40.0,
    controller_faults: bool = True,
    mode: str = INCREMENTAL,
) -> ShardSoakRecord:
    """Drive one seeded churn trace through a crashing sharded plane.

    Both the churn and the crash schedule derive from ``seed``; crashes
    target every replica of every shard (primaries *and* standbys, so
    dual-failure windows occur), and each crash is paired with a
    restore by construction — the soak proves the plane degrades and
    converges, not that outages never happen.
    """
    scheduler = EventScheduler()
    plane = ShardedControlPlane(
        k, soak_datacenters(max(k, n_datacenters)), scheduler, manager_kwargs={"mode": mode}
    )
    trace = ChurnTrace.generate(
        seed,
        duration_s=duration_s,
        arrival_rate_per_s=ARRIVAL_RATE_PER_S,
        mean_holding_s=MEAN_HOLDING_S,
        delay_choices_ms=(16.0, 80.0),
    )
    for event in trace.events:
        if event.kind == JOIN:
            assert event.spec is not None
            scheduler.schedule_at(event.time_s, plane.submit, event.spec)
        else:
            scheduler.schedule_at(event.time_s, plane.depart, event.session_id)
    crashes = 0
    if controller_faults:
        plan = FaultPlan.random(
            seed,
            duration_s=duration_s * 0.75,
            controllers=plane.replicas(),
            max_faults=MAX_FAULTS,
        )
        injector = FaultInjector(scheduler, plan)
        for shard in plane.shards.values():
            for replica in shard.replicas:
                injector.add_controller(replica.name, replica)
        injector.arm()
        crashes = len(plan.of_kind(FaultKind.CONTROLLER_CRASH))
    # default=: a window short enough to draw no churn at all still drains.
    last_event_s = max((event.time_s for event in trace.events), default=0.0)
    try:
        scheduler.run(until=max(last_event_s, duration_s) + DRAIN_MARGIN_S)
    finally:
        plane.stop()
    # Replans verdicts would also land in plane.verdicts; the soak only
    # issues joins, so every join has exactly one verdict when typed.
    tally = admission_tally(plane.verdicts)
    drained = (
        plane.active_sessions == 0 and plane.total_vnfs == 0 and not plane.stats.stranded
    )
    return ShardSoakRecord(
        seed=seed,
        outcome=admission_outcome(tally, trace, drained),
        fingerprint=fingerprint(
            [verdict.canonical() for verdict in plane.verdicts],
            tuple(plane.departed),
            plane.canonical(),
        ),
        shards=k,
        events=len(trace.events),
        admitted=tally[AdmissionStatus.ADMITTED],
        rejected_capacity=tally[AdmissionStatus.REJECTED_CAPACITY],
        rejected_infeasible=tally[AdmissionStatus.REJECTED_INFEASIBLE],
        rejected_unavailable=tally[AdmissionStatus.REJECTED_UNAVAILABLE],
        departed=len(plane.departed),
        controller_crashes=crashes,
        takeovers=plane.takeovers(),
        max_fence=max(shard.lease.fence for shard in plane.shards.values()),
        stale_rejected=sum(
            shard.store.stale_rejected
            for shard in plane.shards.values()
            if shard.store is not None
        ),
        retries=plane.stats.retries,
        stranded=len(plane.stats.stranded),
        final_sessions=plane.active_sessions,
        final_vnfs=plane.total_vnfs,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("incremental", "cold"), default="incremental")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--datacenters", type=int, default=8)


def run_seed(seed: int, args: argparse.Namespace) -> ShardSoakRecord:
    return run_shard_soak(seed, k=args.shards, n_datacenters=args.datacenters, mode=args.mode)
