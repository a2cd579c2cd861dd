"""Uptime flatness: what a plane keeps follows its live sessions, not its age.

The benchmark's ``plane-churn-failover`` recipe (seed 11, a rotating primary
crash every chunk) holds ≈ 210 live sessions however long it runs.  A plane
that keeps every signal ever sent, every deposed manager whole and every spec
ever submitted grows by 1 812 gc-tracked objects per chunk, and CPython's
full collections walk all of them (DESIGN.md §14, "What a plane keeps").  An
invariant, not a stopwatch: object counts repeat exactly.
"""

from __future__ import annotations

import gc
from collections import Counter

from repro.core import signals
from repro.core.signals import NcStart, SignalBus, SignalRecord
from tests.fleet.churn_recipe import drive_churn_recipe

CHUNKS = 60
#: ``decision_digest()`` of the same 60 chunks, recorded at the parent commit
#: before ``src/`` was touched: bounding what is kept decides nothing.
PINNED_DECISIONS = "30e12da22d57a685f4de8859b83e08592475ac0d60e72df46ecc191032c3cd09"
#: Rings this small are full well before the half-way census, so the slope
#: read there is the steady state (at the shipped ``KEPT_RECORDS`` the
#: quietest shard's ``undeliverable`` is still filling at chunk 55).
RING = 256
OBJECTS_PER_CHUNK = 350


def _tap(bus: SignalBus, seen: Counter[str]) -> None:
    """Count what an unbounded list would have held, without reading the bus's own counters."""
    real_send = bus.send

    def send(signal: signals.Signal) -> SignalRecord:
        seen["sent"] += 1
        return real_send(signal)

    def drop_some_starts(record: SignalRecord) -> str | None:
        # An NC_START on a shard bus has no daemon to reach; dropping every
        # third one at its first attempt exercises ``dropped`` and moves no decision.
        if isinstance(record.signal, NcStart) and record.attempts == 0:
            seen["starts"] += 1
            if seen["starts"] % 3 == 0:
                seen["dropped"] += 1
                return "drop"
        return None

    def lost(record: SignalRecord) -> None:
        seen["undeliverable"] += 1

    bus.send = send  # type: ignore[method-assign]
    bus.fault_hook = drop_some_starts
    bus.on_undeliverable = lost


def test_a_planes_footprint_follows_its_live_sessions(monkeypatch):
    monkeypatch.setattr(signals, "KEPT_RECORDS", RING)
    seen: dict[str, Counter[str]] = {}
    census: dict[int, int] = {}

    def after_chunk(chunk, plane):
        if chunk == 0:
            for shard_id, shard in plane.shards.items():
                _tap(shard.bus, seen.setdefault(shard_id, Counter()))
        if chunk in (CHUNKS // 2, CHUNKS):
            gc.collect()
            census[chunk] = len(gc.get_objects())

    run = drive_churn_recipe(11, CHUNKS, after_chunk=after_chunk)
    plane = run.plane

    grown = (census[CHUNKS] - census[CHUNKS // 2]) / (CHUNKS // 2)
    assert grown <= OBJECTS_PER_CHUNK, f"{grown:.0f} gc-tracked objects kept per chunk"

    for shard_id, shard in plane.shards.items():
        bus, counted = shard.bus, seen[shard_id]
        assert (bus.sent_count, bus.undeliverable_count, bus.dropped_count) == (
            counted["sent"], counted["undeliverable"], counted["dropped"]
        )
        assert min(counted.values()) > RING, "every ring must have wrapped for the bound to be tested"
        assert len(bus.log) == len(bus.undeliverable) == len(bus.dropped) == RING
        assert bus.log[-1].seq > bus.log[0].seq, "newest last"

        *husks, zombie = shard.zombies
        assert len(husks) == len(shard.takeovers) - 1 and zombie.plans
        assert not any(husk.sessions or husk.plans or husk._routes or husk._lps for husk in husks)

    managers = [m for shard in plane.shards.values() for m in (shard.manager, *shard.zombies)]
    assert sum(m.lp_solves for m in managers) == sum(v.lp_solves for v in plane.verdicts) == run.joins
    assert sum(m.warm_hits for m in managers) == sum(v.warm_started for v in plane.verdicts)
    assert len(plane._sessions_by_id) == run.joins - len(plane.departed), "live specs only"
    assert run.decision_digest() == PINNED_DECISIONS
