"""Chaos soak: random survivable fault plans composed with live transfers.

The failure matrix in :mod:`tests.faults` pins down *named* scenarios;
this module is the complement — a seeded soak that composes random
:meth:`~repro.faults.FaultPlan.random` schedules (link flaps, daemon
kill/restart cycles, signal drops) with a complete windowed file
transfer over the failover butterfly, self-healing enabled, and holds
the whole stack to the :mod:`repro.soak` contract (complete-or-typed,
bit-identical replay), which here means:

- **terminate**: every session either *completes* (all generations
  decoded at full rank at every receiver, inside the deadline) or ends
  in a *typed* outcome — named dead nodes, recorded fault applications,
  dropped/undeliverable signal records, and per-receiver decode states.
  There is no third state; a hang would show up as an incomplete run
  with no typed evidence, which is the violation.
- **degrade, don't deadlock**: NACK retries are capped with exponential
  backoff and recovery re-plans are LP-feasibility-checked, so even
  adversarial schedules (a forwarding-table push eaten by a signal
  drop, a false death verdict from dropped heartbeats) converge.

``python -m repro.soak session`` sweeps it; ``--impairments`` is the CI
dirty-wire cell.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.experiments.butterfly import BUTTERFLY_LINKS, RELAYS
from repro.experiments.failures import run_butterfly_failover
from repro.faults import FaultPlan
from repro.faults.injector import link_key
from repro.soak import SoakRecord, fingerprint, outcome_of

#: Fault-plan pools: every data link (flappable), every relay daemon
#: (killable), and the signal kinds whose loss stresses recovery most —
#: heartbeats (false death verdicts) and forwarding-table pushes
#: (recovery applied with stale routes).
DATA_LINKS = tuple(link_key(u, v) for u, v in BUTTERFLY_LINKS)
DAEMONS = tuple(RELAYS)
SIGNAL_KINDS = ("NcHeartbeat", "NcForwardTab")

#: One run: the offered rate, the window faults land in, and the fault
#: budget (every outage short enough for the deadline to survive it).
RATE_MBPS = 30.0
FAULT_WINDOW_S = 2.0
MAX_FAULTS = 4
MAX_OUTAGE_S = 0.5


@dataclass(frozen=True)
class ChaosRecord(SoakRecord):
    """One soaked session, classified."""

    total_generations: int
    deadline_s: float
    #: receiver -> generations fully decoded.
    decoded: dict[str, int]
    #: last generation-completion time across receivers (None unless
    #: every generation completed everywhere).
    finished_at: float | None
    dead_nodes: tuple[str, ...]
    applied_faults: int
    dropped_signals: int
    undeliverable_signals: int
    nacks_sent: int
    repair_packets: int


def run_chaos_session(
    seed: int,
    total_generations: int = 48,
    deadline_s: float = 6.0,
    plan: FaultPlan | None = None,
    impairments: bool = False,
) -> ChaosRecord:
    """One seeded chaos run: random survivable plan × live transfer.

    ``impairments`` extends the fault menu with dirty-wire faults
    (bit-flip corruption, duplication, blackholes) on top of the clean
    loss/crash/signal menu — the CI dirty-wire cell sets it.
    """
    if plan is None:
        plan = FaultPlan.random(
            seed,
            duration_s=FAULT_WINDOW_S,
            links=DATA_LINKS,
            daemons=DAEMONS,
            signal_kinds=SIGNAL_KINDS,
            max_faults=MAX_FAULTS,
            max_outage_s=MAX_OUTAGE_S,
            impairments=impairments,
        )
    result = run_butterfly_failover(
        fail_at_s=FAULT_WINDOW_S / 2,  # metadata only; the plan drives injection
        duration_s=deadline_s,
        rate_mbps=RATE_MBPS,
        plan=plan,
        relay_repair=True,
        total_generations=total_generations,
        seed=seed,
    )
    decoded = {name: len(app.completed) for name, app in result.receivers.items()}
    completed = all(count == total_generations for count in decoded.values())
    finish_times = [
        max(app.completed.values()) for app in result.receivers.values() if app.completed
    ]
    typed = bool(
        result.applied_faults
        or result.dead_nodes
        or result.bus.dropped_count
        or result.undeliverable_signals
    )
    # Fingerprinted: every behaviourally meaningful observable.  Bus
    # sequence numbers are process-global (itertools counter) and are
    # deliberately excluded; everything hashed here is derived from the
    # event scheduler and the seeded RNGs alone.
    receivers = {
        name: (
            sorted((gen, repr(t)) for gen, t in app.completed.items()),
            app.received_packets,
            app.redundant_packets,
            app.nacks_sent,
        )
        for name, app in sorted(result.receivers.items())
    }
    return ChaosRecord(
        seed=seed,
        # Neither finished nor typed is the violation: no evidence, no finish.
        outcome=outcome_of(completed, typed),
        fingerprint=fingerprint(
            receivers,
            result.source.sent_generations,
            result.source.sent_packets,
            result.source.repair_packets,
            repr(result.detected_at),
            tuple(result.dead_nodes),
            tuple((repr(t), e.kind.value, e.target) for t, e in result.applied_faults),
            result.undeliverable_signals,
            result.bus.dropped_count,
            total_generations,
        ),
        total_generations=total_generations,
        deadline_s=deadline_s,
        decoded=decoded,
        finished_at=max(finish_times) if completed and finish_times else None,
        dead_nodes=tuple(result.dead_nodes),
        applied_faults=len(result.applied_faults),
        dropped_signals=result.bus.dropped_count,
        undeliverable_signals=result.undeliverable_signals,
        nacks_sent=sum(app.nacks_sent for app in result.receivers.values()),
        repair_packets=result.source.repair_packets,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generations", type=int, default=48, help="generations per transfer")
    parser.add_argument("--deadline", type=float, default=6.0, help="per-run deadline (sim seconds)")
    parser.add_argument(
        "--impairments",
        action="store_true",
        help="add dirty-wire faults (corruption, duplication, blackholes) to the menu",
    )


def run_seed(seed: int, args: argparse.Namespace) -> ChaosRecord:
    return run_chaos_session(
        seed,
        total_generations=args.generations,
        deadline_s=args.deadline,
        impairments=args.impairments,
    )
