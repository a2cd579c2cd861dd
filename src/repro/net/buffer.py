"""Per-session FIFO generation buffer.

A coding VNF stores the packets it has received, keyed by
(session id, generation id), so a new arrival can immediately be mixed
with earlier packets of the same generation (paper §III-B2).  Capacity
is counted in *generations per session*; when a session's buffer is
full, the oldest generation's packets are discarded (FIFO) to make
room.  Fig. 5 finds 1024 generations per session sufficient — larger
buffers gain little — so that is the default.

Dirty-wire hardening (DESIGN.md §11): the wire may *duplicate* packets
and deliver arbitrarily late stragglers.  Duplicates must not inflate
``stored_packets`` (each copy of the same packet adds no degree of
freedom, and double-counting would make eviction accounting lie), and a
straggler for a generation that was already evicted must not re-open a
bucket — that would evict a *live* generation to store a dead one.
Both are rejected by :meth:`add` returning ``False``.

The buffer owns eviction and reports it: after every :meth:`add`,
:attr:`GenerationBuffer.last_evicted` names the generation that call
displaced (``None`` when it displaced nothing), so a VNF keeping
per-generation state beside the buffer drops exactly that entry instead
of diffing snapshots of the buffered ids.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable

DEFAULT_BUFFER_GENERATIONS = 1024


class GenerationBuffer:
    """FIFO buffer of per-generation packet lists for one session."""

    def __init__(self, capacity_generations: int = DEFAULT_BUFFER_GENERATIONS) -> None:
        if capacity_generations <= 0:
            raise ValueError("buffer capacity must be at least one generation")
        self.capacity_generations = capacity_generations
        self._generations: OrderedDict[int, list[Any]] = OrderedDict()
        self.evicted_generations = 0
        self.stored_packets = 0
        self.duplicate_packets = 0
        self.rejected_stale = 0
        # Highest generation id ever evicted: stragglers at or below it
        # are dead and must not displace live generations.
        self._highest_evicted = -1
        #: Generation id evicted by the most recent :meth:`add`, else None.
        self.last_evicted: int | None = None

    def __len__(self) -> int:
        """Number of generations currently buffered."""
        return len(self._generations)

    def __contains__(self, generation_id: int) -> bool:
        return generation_id in self._generations

    def generations(self) -> Iterable[int]:
        """Buffered generation ids, oldest first."""
        return iter(self._generations)

    def packets(self, generation_id: int) -> list[Any]:
        """Packets stored for a generation (empty list if none)."""
        return self._generations.get(generation_id, [])

    def add(self, generation_id: int, packet: Any) -> bool:
        """Store a packet; returns False if it was rejected.

        Inserting a *new* generation when the buffer is full evicts the
        oldest buffered generation first (FIFO, per the paper).  Packets
        for an already-buffered generation always fit, but an exact
        duplicate of a stored packet is dropped (``duplicate_packets``),
        and a straggler for an already-evicted generation id is refused
        rather than allowed to evict a live generation
        (``rejected_stale``).  :attr:`last_evicted` is set to the
        generation this call evicted, or ``None`` if it evicted nothing
        (including every rejected call).
        """
        self.last_evicted = None
        bucket = self._generations.get(generation_id)
        if bucket is None:
            if generation_id <= self._highest_evicted:
                self.rejected_stale += 1
                return False
            if len(self._generations) >= self.capacity_generations:
                self._evict_oldest()
            bucket = []
            self._generations[generation_id] = bucket
        elif packet in bucket:
            # Buckets hold at most a few packets per generation, so the
            # linear duplicate scan is cheaper than hashing packets.
            self.duplicate_packets += 1
            return False
        bucket.append(packet)
        self.stored_packets += 1
        return True

    def _evict_oldest(self) -> None:
        oldest_id, packets = self._generations.popitem(last=False)
        self.evicted_generations += 1
        self.stored_packets -= len(packets)
        if oldest_id > self._highest_evicted:
            self._highest_evicted = oldest_id
        self.last_evicted = oldest_id

    def release(self, generation_id: int) -> list[Any]:
        """Remove and return a generation's packets (after decode/forward)."""
        packets = self._generations.pop(generation_id, [])
        self.stored_packets -= len(packets)
        return packets

    def clear(self) -> None:
        self._generations.clear()
        self.stored_packets = 0

    def __repr__(self) -> str:
        return (
            f"GenerationBuffer({len(self)}/{self.capacity_generations} generations, "
            f"{self.stored_packets} packets, {self.evicted_generations} evicted)"
        )
