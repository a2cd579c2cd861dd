"""Discrete-event scheduler: the simulated clock everything runs on.

A single :class:`EventScheduler` instance is shared by links, nodes,
VNFs and the controller.  Time is a float in seconds.  Events fire in
timestamp order; ties break in scheduling order (a monotone sequence
number), which keeps runs deterministic for a fixed seed.

The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
ordering is decided by a C-level tuple compare on the first two fields
and an :class:`Event` itself is never compared (DESIGN.md §10, "hot
path").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "_scheduler")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple[Any, ...], scheduler: "EventScheduler"
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference while the event sits in the queue, so cancel()
        # can keep the scheduler's live/cancelled counters exact.  The
        # scheduler nulls it when the event leaves the heap; a cancel()
        # after firing is then a pure flag set.
        self._scheduler: "EventScheduler | None" = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler._on_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class PeriodicEvent:
    """Handle for a repeating callback; ``cancel()`` stops the cycle.

    The callback may call ``cancel()`` on its own handle (a heartbeat
    loop stopping itself when its daemon dies); the next tick is only
    scheduled after the callback returns un-cancelled.
    """

    __slots__ = ("scheduler", "interval", "fn", "args", "cancelled", "_event", "fired")

    def __init__(
        self, scheduler: "EventScheduler", interval: float, fn: Callable[..., Any], args: tuple[Any, ...]
    ) -> None:
        self.scheduler = scheduler
        self.interval = interval
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = 0
        self._event: Event | None = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.fn(*self.args)
        if not self.cancelled:
            self._event = self.scheduler.schedule(self.interval, self._tick)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "running"
        return f"PeriodicEvent(every={self.interval:.6f}, fn={getattr(self.fn, '__name__', self.fn)!r}, {state})"


class EventScheduler:
    """Priority-queue event loop with a simulated clock."""

    # Compaction threshold: rebuild the heap when cancelled entries both
    # exceed this floor and outnumber the live ones, so a long-running
    # simulation that cancels heavily (retry timers, heartbeat guards)
    # keeps its heap proportional to the *live* event count.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0
        self._cancelled = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = Event(time, fn, args, self)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        self._live += 1
        return event

    def _on_cancel(self) -> None:
        """Counter upkeep for an in-queue cancellation (called by Event)."""
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > self._COMPACT_MIN_CANCELLED and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the queue.

        In place: :meth:`run` holds a reference to the list across
        callbacks, and a callback may cancel its way into a compaction.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled = 0

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def schedule_every(
        self, interval: float, fn: Callable[..., Any], *args: Any, first_delay: float | None = None
    ) -> PeriodicEvent:
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        The first firing happens after ``first_delay`` (default: one full
        interval).  Used by heartbeat emitters and liveness monitors.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        periodic = PeriodicEvent(self, interval, fn, args)
        delay = interval if first_delay is None else first_delay
        periodic._event = self.schedule(delay, periodic._tick)
        return periodic

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._live

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        before = self.processed
        self.run(max_events=1)
        return self.processed != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at time ``until``.

        When ``until`` is given, the clock is advanced exactly to it even
        if the last event fired earlier, so periodic samplers see a full
        final interval.  Stopping on ``max_events`` with a due event
        still queued leaves the clock at the last fired event.
        """
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            time, _, event = queue[0]
            if event.cancelled:
                pop(queue)
                self._cancelled -= 1
                event._scheduler = None
                continue
            if until is not None and time > until:
                break
            if max_events is not None and fired >= max_events:
                return
            pop(queue)
            self._live -= 1
            event._scheduler = None
            self.now = time
            self.processed += 1
            fired += 1
            event.fn(*event.args)
        if until is not None and self.now < until:
            self.now = until
