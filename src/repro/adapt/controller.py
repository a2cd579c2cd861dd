"""The per-session adaptive-redundancy controller (DESIGN.md §15).

Closes the feedback loop: ``NC_LINK_REPORT`` signals in, ``NC_SETTINGS``
retunes out.  The policy is AIMD-shaped, with the roles inverted from
congestion control because the controlled quantity is *protection*
rather than load:

- **Additive increase** — when the smoothed loss estimate says fewer
  than k + margin of the k + extra packets per generation survive, or
  receivers are NACKing under measurable loss, raise ``extra`` by one,
  clamped to the policy ceiling.
- **Multiplicative decrease** — only after ``clean_windows``
  consecutive clean reports (loss under the clean threshold, no NACKs)
  halve ``extra``; hysteresis keeps one lossy report from thrashing
  the wire-rate allocation.
- **Generation size** — hostile links get short generations (fewer
  packets at risk per decode unit, faster NACK turnaround), clean
  links long ones (lower header overhead); the two thresholds leave a
  hysteresis band where the current size is kept.

Degradation contract (the robustness half of the issue):

- ``extra`` is clamped to ``[min_extra, max_extra]`` — no report
  sequence can push redundancy unbounded.
- Report starvation (no accepted report for ``report_timeout_s``)
  drops the loop into the typed :attr:`AdaptState.ADAPT_STALLED` state
  and pushes the session's *static* baseline config — the paper's
  fixed-redundancy behaviour — so a dead reporter degrades to the
  status quo ante, never to a hang or a frozen hostile-link tuning.
  The first accepted report re-enters ``TRACKING``.
- A healing replan calls :meth:`AdaptiveRedundancyController.on_replan`:
  the loop resets to the baseline under the replan's fresh ``(fence,
  epoch)`` stamp, because surviving loss estimates describe a topology
  that no longer exists.

Every retune rides the existing ``NC_SETTINGS`` signal with a live
``(fence, epoch)`` stamp, so daemons order it against healing and
shard-failover configs with the machinery they already have — a zombie
adaptive controller of a deposed shard primary loses exactly like any
other deposed sender.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.session import CodingConfig
from repro.core.signals import NcLinkReport, NcSettings, Signal, SignalPort
from repro.net.events import EventScheduler, PeriodicEvent
from repro.rlnc.redundancy import RedundancyPolicy

#: Default bus address the controller registers under.
CONTROLLER_NAME = "adapt"


class AdaptState(enum.Enum):
    """Typed loop states; ``ADAPT_STALLED`` is the starvation fallback."""

    TRACKING = "tracking"
    ADAPT_STALLED = "adapt-stalled"
    STOPPED = "stopped"


@dataclass(frozen=True)
class AdaptPolicy:
    """Bounds and thresholds of the AIMD redundancy policy."""

    min_extra: int = 0            # floor of extra coded packets
    max_extra: int = 8            # redundancy ceiling (hard clamp)
    margin: float = 1.0           # surviving packets targeted beyond k
    decrease_factor: float = 0.5  # multiplicative decay when clean
    clean_windows: int = 4        # consecutive clean reports before decay
    clean_loss: float = 0.02      # loss at or below this is "clean"
    hostile_loss: float = 0.08    # loss at or above this is "hostile"
    blocks_hostile: int = 8       # generation size under hostile loss
    blocks_clean: int = 16        # generation size on clean links
    report_timeout_s: float = 2.0  # starvation clock

    def __post_init__(self) -> None:
        if not 0 <= self.min_extra <= self.max_extra:
            raise ValueError("need 0 <= min_extra <= max_extra")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError("decrease_factor must be in (0, 1)")
        if self.clean_windows < 1:
            raise ValueError("clean_windows must be >= 1")
        if not 0.0 <= self.clean_loss < self.hostile_loss <= 1.0:
            raise ValueError("need 0 <= clean_loss < hostile_loss <= 1")
        if self.blocks_hostile < 1 or self.blocks_clean < 1:
            raise ValueError("generation sizes must be positive")
        if self.report_timeout_s <= 0:
            raise ValueError("report_timeout_s must be positive")


class AdaptiveRedundancyController:
    """One session's redundancy loop on the control bus.

    ``daemon_targets`` are the bus names of the VNF daemons carrying
    the session (they receive the ``NC_SETTINGS`` retunes);
    ``apply_source`` is the source application's retune entry point
    (:meth:`repro.apps.file_transfer.NcSourceApp.retune_coding` in the
    experiments), called with every new config so the emission side and
    the data plane retune from the same decision.
    """

    def __init__(
        self,
        bus: SignalPort,
        scheduler: EventScheduler,
        session_id: int,
        initial: CodingConfig,
        daemon_targets: tuple[str, ...] = (),
        apply_source: Callable[[CodingConfig], None] | None = None,
        policy: AdaptPolicy | None = None,
        fence: int = 0,
    ) -> None:
        self.bus = bus
        self.scheduler = scheduler
        self.session_id = session_id
        self.policy = policy if policy is not None else AdaptPolicy()
        self.name = CONTROLLER_NAME
        self.fence = fence
        self.epoch = 0
        self.daemon_targets = tuple(daemon_targets)
        self.apply_source = apply_source
        self.static_config = initial   # the starvation fallback
        self.config = initial
        self.state = AdaptState.TRACKING
        self.transitions: list[tuple[float, AdaptState]] = [(scheduler.now, AdaptState.TRACKING)]
        self.loss_estimate = 0.0
        self.reports_accepted = 0
        self.reports_stale = 0
        self.retunes_pushed = 0
        self.stall_entries = 0
        self.replans_seen = 0
        self._clean_streak = 0
        self._reporter_epochs: dict[str, int] = {}
        self._reporter_loss: dict[str, float] = {}
        self._last_report_at = scheduler.now
        bus.register(self.name, self.handle_signal)
        self._watchdog: PeriodicEvent = scheduler.schedule_every(
            self.policy.report_timeout_s / 2, self._check_starvation
        )

    # -- signal dispatch -------------------------------------------------

    def handle_signal(self, signal: Signal) -> None:
        if self.state is AdaptState.STOPPED:
            return  # a racing delivery after teardown
        if isinstance(signal, NcLinkReport):
            self._on_report(signal)
        # Every other signal kind is daemon- or controller-bound; the
        # adapt endpoint only consumes link reports.

    def _on_report(self, report: NcLinkReport) -> None:
        if report.session_id != self.session_id:
            return
        newest = self._reporter_epochs.get(report.reporter, 0)
        if report.report_epoch <= newest:
            # At-least-once delivery: a retried duplicate or an
            # out-of-order stale report must not move the estimate.
            self.reports_stale += 1
            return
        self._reporter_epochs[report.reporter] = report.report_epoch
        self.reports_accepted += 1
        self._last_report_at = self.scheduler.now
        if self.state is AdaptState.ADAPT_STALLED:
            self._enter(AdaptState.TRACKING)  # the feed came back
        self._reporter_loss[report.reporter] = report.loss_ewma
        # The worst link dominates: redundancy must cover the receiver
        # that loses the most, and over-protecting the clean ones
        # merely costs the bandwidth the clamp bounds.
        self.loss_estimate = max(self._reporter_loss.values())
        self._adjust(report.nacks)

    # -- the AIMD policy -------------------------------------------------

    def _adjust(self, window_nacks: int) -> None:
        p = self.policy
        current = self.config
        loss = self.loss_estimate
        extra = current.redundancy.extra
        blocks = current.blocks_per_generation
        survivors = (blocks + extra) * (1.0 - loss)
        under_pressure = survivors < blocks + p.margin or (window_nacks > 0 and loss > p.clean_loss)
        if under_pressure:
            extra = min(p.max_extra, extra + 1)
            self._clean_streak = 0
        elif loss <= p.clean_loss and window_nacks == 0:
            self._clean_streak += 1
            if self._clean_streak >= p.clean_windows and extra > p.min_extra:
                extra = max(p.min_extra, int(extra * p.decrease_factor))
                self._clean_streak = 0
        else:
            self._clean_streak = 0
        if loss >= p.hostile_loss:
            blocks = p.blocks_hostile
        elif loss <= p.clean_loss:
            blocks = p.blocks_clean
        # Between the thresholds the current size is kept (hysteresis).
        if extra != current.redundancy.extra or blocks != current.blocks_per_generation:
            self._push(
                dataclasses.replace(
                    current, blocks_per_generation=blocks, redundancy=RedundancyPolicy(extra)
                )
            )

    def _push(self, config: CodingConfig) -> None:
        """Carry a retune to the data plane and the source."""
        self.config = config
        self.epoch += 1
        self.retunes_pushed += 1
        for target in self.daemon_targets:
            self.bus.send(
                NcSettings(
                    target=target,
                    session_ids=(self.session_id,),
                    blocks_per_generation=config.blocks_per_generation,
                    redundancy_extra=config.redundancy.extra,
                    epoch=self.epoch,
                    fence=self.fence,
                )
            )
        if self.apply_source is not None:
            self.apply_source(config)

    # -- degradation paths -----------------------------------------------

    def _check_starvation(self) -> None:
        if self.state is not AdaptState.TRACKING:
            return
        if self.scheduler.now - self._last_report_at <= self.policy.report_timeout_s:
            return
        # The feed is dead (reporter crash, bus partition): adapting on
        # a frozen estimate is worse than not adapting at all, so fall
        # back to the static baseline — the paper's fixed-redundancy
        # behaviour — as a typed state, and keep watching for reports.
        self.stall_entries += 1
        self._enter(AdaptState.ADAPT_STALLED)
        self._clean_streak = 0
        self.loss_estimate = 0.0
        self._reporter_loss.clear()
        if self.config != self.static_config:
            self._push(self.static_config)

    def on_replan(self, fence: int | None = None, epoch: int | None = None) -> None:
        """A healing replan rebuilt the session's paths: reset the loop.

        Loss estimates learned on the dead topology are meaningless on
        the new one, so the loop restarts from the static baseline with
        a fresh starvation clock, under the replan's ``(fence, epoch)``
        stamp when given (so subsequent retunes order after the
        recovery config, not before it).  Reporter dedup epochs are
        *kept*: the reporters did not restart, and accepting their old
        epochs again would undo at-least-once safety.
        """
        if self.state is AdaptState.STOPPED:
            return
        if fence is not None:
            self.fence = fence
        if epoch is not None:
            self.epoch = max(self.epoch, epoch)
        self.replans_seen += 1
        self._reporter_loss.clear()
        self.loss_estimate = 0.0
        self._clean_streak = 0
        self.config = self.static_config
        self._last_report_at = self.scheduler.now
        if self.state is AdaptState.ADAPT_STALLED:
            self._enter(AdaptState.TRACKING)

    def stop(self) -> None:
        """Tear the loop down at end of session."""
        if self.state is AdaptState.STOPPED:
            return
        self._enter(AdaptState.STOPPED)
        self._watchdog.cancel()
        self.bus.unregister(self.name)

    def _enter(self, state: AdaptState) -> None:
        if state is self.state:
            return
        self.state = state
        self.transitions.append((self.scheduler.now, state))
