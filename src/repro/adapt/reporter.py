"""Link-condition reporters: the sensing half of the adaptive loop.

A :class:`LinkReporter` sits next to a measurement point — a receiver
application or a coding VNF — and periodically folds that point's
cumulative counters into one ``NC_LINK_REPORT`` signal on the control
bus.  The report carries window *deltas* (packets, generations, NACKs,
corrupt drops) plus an EWMA-smoothed loss estimate, so the controller
never has to reconstruct rates from absolute counters it may have
missed updates of.

Dedup safety: every report carries a per-reporter monotone
``report_epoch``.  The bus delivers at-least-once and possibly out of
order; the controller accepts only strictly newer epochs per reporter,
so a retried duplicate or a delayed stale report can never drag the
smoothed estimate backwards.  The epoch counter is modelled as
persisted across reporter restarts (a single integer — the one thing a
real implementation journals) precisely so that dedup survives the
crash/restart cycle the fault injector drives.

Fault surface: a reporter is a process, and processes die.  ``kill()``
silences it — reports simply stop, which is how the controller's
starvation clock gets exercised — and ``restart()`` resumes reporting
from a fresh counter baseline (the outage window is *not* retroactively
reported: a restarted process has no memory of what it failed to see).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.signals import NcLinkReport, SignalPort
from repro.net.events import EventScheduler, PeriodicEvent

if TYPE_CHECKING:
    from repro.apps.file_transfer import NcReceiverApp
    from repro.core.vnf import CodingVnf

#: Default controller bus address reports are sent to.
CONTROLLER_NAME = "adapt"


@dataclass(frozen=True)
class LinkSample:
    """One snapshot of a measurement point's cumulative counters."""

    packets: int = 0      # data packets accepted so far
    expected: int = 0     # packets that should have arrived loss-free
    generations: int = 0  # generations observed so far
    nacks: int = 0        # repair requests sent so far
    corrupt: int = 0      # packets dropped for failed integrity checks


def receiver_probe(
    receiver: "NcReceiverApp", expected_per_generation: Callable[[], int]
) -> Callable[[], LinkSample]:
    """Probe a receiver application's loss-relevant counters.

    ``expected_per_generation`` supplies the *currently configured*
    k + extra so the expected-packet count tracks adaptive retunes;
    it is accumulated incrementally per newly observed generation, so
    generations sent under an old configuration keep the expectation
    they were sent with.
    """
    state = {"generations": 0, "expected": 0}

    def probe() -> LinkSample:
        generations = receiver.highest_seen + 1
        if generations > state["generations"]:
            per_generation = max(1, expected_per_generation())
            state["expected"] += (generations - state["generations"]) * per_generation
            state["generations"] = generations
        return LinkSample(
            packets=receiver.received_packets,
            expected=state["expected"],
            generations=generations,
            nacks=receiver.nacks_sent,
            corrupt=receiver.corrupt_dropped,
        )

    return probe


def vnf_probe(vnf: "CodingVnf") -> Callable[[], LinkSample]:
    """Probe a coding VNF's counters.

    A relay cannot know how many packets it *should* have seen (that
    depends on upstream topology), so ``expected`` stays 0 and the
    report contributes corruption pressure and traffic evidence rather
    than a loss estimate.
    """

    def probe() -> LinkSample:
        return LinkSample(
            packets=vnf.processed_packets,
            expected=0,
            generations=vnf.decoded_generations,
            nacks=0,
            corrupt=vnf.corrupt_dropped,
        )

    return probe


class LinkReporter:
    """Periodic NC_LINK_REPORT emitter for one measurement point."""

    def __init__(
        self,
        name: str,
        session_id: int,
        bus: SignalPort,
        scheduler: EventScheduler,
        probe: Callable[[], LinkSample],
        interval_s: float = 0.5,
        ewma_alpha: float = 0.3,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("report interval must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.name = name
        self.session_id = session_id
        self.bus = bus
        self.scheduler = scheduler
        self.probe = probe
        self.interval_s = interval_s
        self.ewma_alpha = ewma_alpha
        self.controller_name = CONTROLLER_NAME
        self.alive = True
        self.reports_sent = 0
        self.restarts = 0
        self.loss_ewma = 0.0
        self._report_epoch = 0
        self._baseline = probe()
        self._timer: PeriodicEvent = scheduler.schedule_every(interval_s, self._tick)

    def _tick(self) -> None:
        if not self.alive:
            return
        sample = self.probe()
        base = self._baseline
        self._baseline = sample
        d_packets = sample.packets - base.packets
        d_expected = sample.expected - base.expected
        if d_expected > 0:
            window_loss = min(1.0, max(0.0, 1.0 - d_packets / d_expected))
            self.loss_ewma += self.ewma_alpha * (window_loss - self.loss_ewma)
        # An all-idle window still reports: silence must mean reporter
        # (or bus) failure, not "the link happened to be quiet" — the
        # controller's starvation fallback keys off exactly that.
        self._report_epoch += 1
        self.reports_sent += 1
        self.bus.send(
            NcLinkReport(
                target=self.controller_name,
                reporter=self.name,
                session_id=self.session_id,
                report_epoch=self._report_epoch,
                loss_ewma=self.loss_ewma,
                packets=d_packets,
                generations=sample.generations - base.generations,
                nacks=sample.nacks - base.nacks,
                corrupt=sample.corrupt - base.corrupt,
            )
        )

    # -- fault surface (driven by the fault injector) --------------------

    def kill(self) -> None:
        """Crash the reporter process: reports stop, counters freeze."""
        self.alive = False

    def restart(self) -> None:
        """Bring the reporter back up with a fresh counter baseline.

        The outage window is not retroactively reported (process
        amnesia), but ``report_epoch`` continues monotonically so the
        controller's dedup keeps working across the restart.
        """
        if self.alive:
            return
        self.alive = True
        self.restarts += 1
        self.loss_ewma = 0.0
        self._baseline = self.probe()

    def stop(self) -> None:
        """Tear the reporter down at end of session."""
        self.alive = False
        self._timer.cancel()
