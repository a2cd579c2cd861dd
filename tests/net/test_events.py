"""Event scheduler tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.events import EventScheduler


class TestScheduling:
    def test_fires_in_time_order(self, scheduler):
        fired = []
        scheduler.schedule(2.0, fired.append, "b")
        scheduler.schedule(1.0, fired.append, "a")
        scheduler.schedule(3.0, fired.append, "c")
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, scheduler):
        fired = []
        for name in "abc":
            scheduler.schedule(1.0, fired.append, name)
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, scheduler):
        times = []
        scheduler.schedule(1.5, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [1.5]

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self, scheduler):
        scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        assert scheduler.now == 1.0
        scheduler.schedule_at(5.0, lambda: None)
        scheduler.run()
        assert scheduler.now == 5.0

    def test_events_scheduled_during_run(self, scheduler):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                scheduler.schedule(1.0, chain, n + 1)

        scheduler.schedule(0.0, chain, 0)
        scheduler.run()
        assert fired == [0, 1, 2, 3]
        assert scheduler.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, scheduler):
        fired = []
        event = scheduler.schedule(1.0, fired.append, "x")
        event.cancel()
        scheduler.run()
        assert fired == []

    def test_pending_count_excludes_cancelled(self, scheduler):
        e1 = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        assert scheduler.pending == 2
        e1.cancel()
        assert scheduler.pending == 1

    def test_double_cancel_counts_once(self, scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert scheduler.pending == 1

    def test_cancel_after_fire_is_noop(self, scheduler):
        event = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.run(max_events=1)
        assert scheduler.pending == 1
        event.cancel()  # already fired; counters must not move
        assert scheduler.pending == 1

    def test_mass_cancellation_pending_and_drain(self, scheduler):
        """Cancel 10k of 10k+5 events: pending stays exact, run() drains.

        This exercises the O(1) pending counter and the heap compaction
        path (cancelled entries heavily outnumber live ones).
        """
        fired = []
        keep = []
        cancel = []
        for i in range(10_005):
            if i % 2001 == 1000:  # 5 survivors spread through the heap
                keep.append(scheduler.schedule(float(i), fired.append, i))
            else:
                cancel.append(scheduler.schedule(float(i), fired.append, i))
        assert scheduler.pending == 10_005
        for event in cancel:
            event.cancel()
        assert scheduler.pending == 5
        # Compaction must have trimmed the underlying heap too.
        assert len(scheduler._queue) < 100
        scheduler.run()
        assert fired == sorted(fired)
        assert len(fired) == 5
        assert scheduler.pending == 0
        assert scheduler.processed == 5


class TestRunUntil:
    def test_stops_at_until(self, scheduler):
        fired = []
        scheduler.schedule(1.0, fired.append, "a")
        scheduler.schedule(5.0, fired.append, "b")
        scheduler.run(until=3.0)
        assert fired == ["a"]
        assert scheduler.now == 3.0  # clock advanced even with no event at 3

    def test_resume_after_until(self, scheduler):
        fired = []
        scheduler.schedule(5.0, fired.append, "b")
        scheduler.run(until=3.0)
        scheduler.run()
        assert fired == ["b"]

    def test_max_events(self, scheduler):
        fired = []
        for i in range(10):
            scheduler.schedule(float(i), fired.append, i)
        scheduler.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_processed_counter(self, scheduler):
        for i in range(5):
            scheduler.schedule(float(i), lambda: None)
        scheduler.run()
        assert scheduler.processed == 5


# -- model test ---------------------------------------------------------------
#
# The production scheduler (tuple heap, lazy deletion, compaction, one
# dispatch loop shared by run() and step()) is replayed against the
# simplest thing that could be right: a sorted list of live entries.


class _RefEvent:
    def __init__(self, owner, time, seq, fn, args):
        self.owner, self.time, self.seq, self.fn, self.args = owner, time, seq, fn, args

    def cancel(self):
        if self in self.owner.entries:
            self.owner.entries.remove(self)


class ReferenceScheduler:
    """Sorted list of live (time, seq) entries; nothing lazy, nothing shared."""

    def __init__(self):
        self.entries, self.seq, self.now, self.processed = [], 0, 0.0, 0

    def schedule(self, delay, fn, *args):
        event = _RefEvent(self, self.now + delay, self.seq, fn, args)
        self.seq += 1
        self.entries.append(event)
        self.entries.sort(key=lambda e: (e.time, e.seq))
        return event

    def schedule_at(self, time, fn, *args):
        return self.schedule(time - self.now, fn, *args)

    @property
    def pending(self):
        return len(self.entries)

    def run(self, until=None, max_events=None):
        fired = 0
        while self.entries and (until is None or self.entries[0].time <= until):
            if max_events is not None and fired >= max_events:
                return
            event = self.entries.pop(0)
            self.now = event.time
            self.processed += 1
            fired += 1
            event.fn(*event.args)
        if until is not None and self.now < until:
            self.now = until

    def step(self):
        before = self.processed
        self.run(max_events=1)
        return self.processed != before


# Binary-exact delays, few distinct values: ties are the common case and
# schedule_at's ``now + (time - now)`` round trip is exact in the model.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("spawn"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
)
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _ACTIONS),
    st.tuples(st.just("schedule_at"), _DELAYS, _ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("burst"), st.integers(65, 90)),  # > _COMPACT_MIN_CANCELLED
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 5)),
    st.tuples(st.just("step")),
)


def _play(scheduler, program, stepwise=False):
    """Run ``program`` on a scheduler; returns (trace, fired ids).

    ``stepwise`` replaces every ``run(max_events=n)`` by n ``step()``
    calls and the final drain by a ``step()`` loop.
    """
    trace, fired, handles = [], [], []

    def fire(ident, action):
        fired.append(ident)
        trace.append(("fire", ident, scheduler.now))
        if action is None:
            return
        if action[0] == "spawn":
            handles.append(scheduler.schedule(action[1], fire, f"{ident}.child", None))
        elif handles:
            handles[action[1] % len(handles)].cancel()

    for number, op in enumerate(program):
        kind = op[0]
        if kind == "schedule":
            handles.append(scheduler.schedule(op[1], fire, number, op[2]))
        elif kind == "schedule_at":
            handles.append(scheduler.schedule_at(scheduler.now + op[1], fire, number, op[2]))
        elif kind == "cancel":
            if handles:
                handle = handles[op[1] % len(handles)]
                handle.cancel()
                if op[2]:
                    handle.cancel()
        elif kind == "burst":
            doomed = [scheduler.schedule(10.0, fire, (number, i), None) for i in range(op[1])]
            handles.extend(doomed)
            for handle in doomed:
                handle.cancel()
        elif kind == "run_until":
            scheduler.run(until=scheduler.now + op[1])
        elif kind == "run_max":
            if stepwise:
                for _ in range(op[1]):
                    scheduler.step()
            else:
                scheduler.run(max_events=op[1])
        else:
            trace.append(("stepped", scheduler.step()))
        trace.append(("state", scheduler.pending, scheduler.processed, scheduler.now))
    if stepwise:
        while scheduler.step():
            pass
    else:
        scheduler.run()
    trace.append(("final", scheduler.pending, scheduler.processed, scheduler.now))
    return trace, fired


class TestAgainstReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    @example([("schedule", 1.0, None), ("burst", 80), ("schedule", 0.5, ("cancel", 0)), ("run_max", 1)])
    def test_matches_sorted_list_model(self, program):
        scheduler = EventScheduler()
        trace, fired = _play(scheduler, program)
        assert (trace, fired) == _play(ReferenceScheduler(), program)
        assert len(fired) == len(set(fired)) == scheduler.processed  # nothing fires twice
        assert scheduler.pending == 0 and not scheduler._queue

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_OPS, max_size=40))
    def test_step_and_run_agree(self, program):
        assert _play(EventScheduler(), program) == _play(EventScheduler(), program, stepwise=True)

    def test_compaction_during_run_keeps_the_loop_on_the_live_heap(self, scheduler):
        """A callback cancels its way into _compact() while run() iterates."""
        fired = []
        doomed = [scheduler.schedule(5.0, fired.append, "doomed") for _ in range(200)]
        scheduler.schedule(1.0, lambda: [event.cancel() for event in doomed])
        scheduler.schedule(2.0, fired.append, "after")
        scheduler.run()
        assert fired == ["after"]
        assert scheduler.pending == 0 and scheduler.processed == 2
