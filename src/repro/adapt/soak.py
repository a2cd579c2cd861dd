"""Adaptive-loop chaos soak: random faults composed with the feedback loop.

The scenario presets (:mod:`repro.experiments.scenarios`) show the
adaptive loop winning on goodput; this module shows it *failing well*.
Each seeded run composes a random :meth:`~repro.faults.FaultPlan.random`
schedule — chain-link flaps, relay-daemon kill/restart cycles, reporter
crashes (the loop's own sensing process is on the fault menu, handle
``"reporter"``), and control-signal drops — with a live adaptive
transfer over a hostile-link preset, and holds the loop to the
:mod:`repro.soak` contract the butterfly chaos soak
(:mod:`repro.experiments.chaos`) also answers to — here, *complete or
degrade typed*: a run either makes healthy forward progress or leaves
typed evidence — applied fault records, an ``ADAPT_STALLED`` transition
on the controller, dropped/undeliverable signal records.  A silent hang
(no progress, no evidence) is a contract violation and fails the sweep.
The replay fingerprint covers decode times, counters, controller
transitions and applied faults.

Killing the reporter for longer than the controller's
``report_timeout_s`` is precisely the starvation path: the controller
must drop to :attr:`~repro.adapt.controller.AdaptState.ADAPT_STALLED`,
push the static baseline, and re-enter ``TRACKING`` when reports
resume.  ``python -m repro.soak adapt`` sweeps it.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.adapt.controller import AdaptState
from repro.experiments.scenarios import (
    PRESETS,
    REPORTER_HANDLE,
    GEO_SATELLITE,
    ScenarioPreset,
    ScenarioResult,
    run_scenario,
)
from repro.faults import FaultPlan
from repro.faults.injector import link_key
from repro.soak import SoakRecord, fingerprint, outcome_of

#: Signal kinds whose loss stresses the loop most: the reports it feeds
#: on and the retunes it emits.
SIGNAL_KINDS = ("NcLinkReport", "NcSettings")

#: A run with at least this fraction of sent generations decoded counts
#: as healthy forward progress even under faults.
PROGRESS_FLOOR = 0.5

#: Fault budget of one run.  The outage bound sits *above* the
#: controller's 2 s report timeout so reporter kills can outlast the
#: starvation clock and exercise the ``ADAPT_STALLED`` fallback, not
#: just brief blips.
MAX_FAULTS = 4
MAX_OUTAGE_S = 3.0


@dataclass(frozen=True)
class AdaptRecord(SoakRecord):
    """One soaked adaptive session, classified."""

    decoded_generations: int
    sent_generations: int
    goodput_mbps: float
    stall_entries: int
    retunes_pushed: int
    reporter_restarts: int
    applied_faults: int
    dropped_signals: int
    undeliverable_signals: int
    transitions: tuple[tuple[float, str], ...]


def classify(seed: int, result: ScenarioResult) -> AdaptRecord:
    """Fold a scenario run into the complete-or-typed contract.

    Everything fingerprinted derives from the event scheduler and the
    seeded RNGs; bus sequence numbers (process-global) are excluded,
    exactly as in the butterfly soak.
    """
    receiver = result.receiver
    source = result.source
    reporter = result.reporter
    progressed = (
        result.sent_generations > 0
        and result.decoded_generations >= PROGRESS_FLOOR * result.sent_generations
    )
    stalled = any(state is AdaptState.ADAPT_STALLED for _, state in result.transitions)
    typed = bool(
        result.applied_faults
        or stalled
        or result.dropped_signals
        or result.undeliverable_signals
    )
    return AdaptRecord(
        seed=seed,
        # No progress and no evidence is the violation: a silent hang.
        outcome=outcome_of(progressed, typed),
        fingerprint=fingerprint(
            sorted((gen, repr(t)) for gen, t in receiver.completed.items()),
            receiver.received_packets,
            receiver.nacks_sent,
            receiver.nacks_suppressed,
            receiver.corrupt_dropped,
            source.sent_generations,
            source.sent_packets,
            source.repair_packets,
            source.coding_retunes,
            result.retunes_pushed,
            result.stall_entries,
            tuple((repr(t), state.value) for t, state in result.transitions),
            reporter.reports_sent if reporter is not None else -1,
            reporter.restarts if reporter is not None else -1,
            tuple((repr(t), e.kind.value, e.target) for t, e in result.applied_faults),
            result.dropped_signals,
            result.undeliverable_signals,
            result.final_extra,
            result.final_blocks,
        ),
        decoded_generations=result.decoded_generations,
        sent_generations=result.sent_generations,
        goodput_mbps=result.goodput_mbps,
        stall_entries=result.stall_entries,
        retunes_pushed=result.retunes_pushed,
        reporter_restarts=reporter.restarts if reporter is not None else 0,
        applied_faults=len(result.applied_faults),
        dropped_signals=result.dropped_signals,
        undeliverable_signals=result.undeliverable_signals,
        transitions=tuple((t, state.value) for t, state in result.transitions),
    )


def run_adapt_session(
    seed: int,
    preset: ScenarioPreset = GEO_SATELLITE,
    loss: float = 0.15,
    duration_s: float = 8.0,
) -> AdaptRecord:
    """One seeded adaptive chaos run: random plan × hostile-link transfer."""
    links = tuple(link_key(a, b) for a, b in zip(preset.nodes, preset.nodes[1:]))
    plan = FaultPlan.random(
        seed,
        duration_s=duration_s * 0.6,
        links=links,
        daemons=tuple(preset.relays) + (REPORTER_HANDLE,),
        signal_kinds=SIGNAL_KINDS,
        max_faults=MAX_FAULTS,
        max_outage_s=MAX_OUTAGE_S,
    )
    result = run_scenario(
        preset, mode="adaptive", loss=loss, duration_s=duration_s, seed=seed, plan=plan
    )
    return classify(seed, result)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default=GEO_SATELLITE.name, help="scenario preset"
    )
    parser.add_argument("--loss", type=float, default=0.15, help="end-to-end burst loss rate")
    parser.add_argument("--duration", type=float, default=8.0, help="per-run sim seconds")


def run_seed(seed: int, args: argparse.Namespace) -> AdaptRecord:
    return run_adapt_session(seed, preset=PRESETS[args.preset], loss=args.loss, duration_s=args.duration)
