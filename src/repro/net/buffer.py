"""Per-session FIFO generation buffer.

A coding VNF mixes each arrival with the earlier packets of the same
(session id, generation id) (paper §III-B2).  Capacity is counted in
*generations per session*; when a session's buffer is full, the oldest
generation is discarded (FIFO) to make room.  Fig. 5 finds 1024
generations per session sufficient — larger buffers gain little — so
that is the default.

The buffer holds no packets.  A relay's rows live once, in the
generation's :class:`~repro.rlnc.recoder.Recoder`, which also gives the
duplicate verdict; what this class owns is *which generations are live*
(arbitration, eviction, the stale high-water mark) and the packet
counts per live generation.

Dirty-wire hardening (DESIGN.md §11): the wire may *duplicate* packets
and deliver arbitrarily late stragglers.  Duplicates must not inflate
``stored_packets`` (each copy of the same packet adds no degree of
freedom, and double-counting would make eviction accounting lie), and a
straggler for a generation that was already evicted must not re-open
it — that would evict a *live* generation to store a dead one.  Both
are rejected by :meth:`add` returning ``False``.

The buffer owns eviction and reports it: after every :meth:`add`,
:attr:`GenerationBuffer.last_evicted` names the generation that call
displaced (``None`` when it displaced nothing), so a VNF keeping
per-generation state beside the buffer drops exactly that entry instead
of diffing snapshots of the buffered ids.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

DEFAULT_BUFFER_GENERATIONS = 1024


class GenerationBuffer:
    """FIFO of live generations and their packet counts for one session."""

    def __init__(self, capacity_generations: int = DEFAULT_BUFFER_GENERATIONS) -> None:
        if capacity_generations <= 0:
            raise ValueError("buffer capacity must be at least one generation")
        self.capacity_generations = capacity_generations
        # generation id -> packets stored for it, oldest generation first
        self._generations: OrderedDict[int, int] = OrderedDict()
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

    def add(self, generation_id: int, duplicate: bool = False) -> bool:
        """Count one arrival for a generation; returns False if rejected.

        ``duplicate`` is the row store's verdict on the packet.  Opening
        a *new* generation when the buffer is full evicts the oldest
        buffered generation first (FIFO, per the paper).  Packets for an
        already-buffered generation always fit, but an exact duplicate
        of a stored packet is not counted (``duplicate_packets``), and a
        straggler for an already-evicted generation id is refused rather
        than allowed to evict a live generation (``rejected_stale``) —
        whatever its verdict, since its rows are gone.
        :attr:`last_evicted` is set to the generation this call evicted,
        or ``None`` if it evicted nothing (including every rejected
        call).
        """
        self.last_evicted = None
        generations = self._generations
        if generation_id not in generations:
            if generation_id <= self._highest_evicted:
                self.rejected_stale += 1
                return False
            if len(generations) >= self.capacity_generations:
                self._evict_oldest()
            generations[generation_id] = 0
        if duplicate:
            self.duplicate_packets += 1
            return False
        generations[generation_id] += 1
        self.stored_packets += 1
        return True

    def _evict_oldest(self) -> None:
        oldest_id, packets = self._generations.popitem(last=False)
        self.evicted_generations += 1
        self.stored_packets -= packets
        if oldest_id > self._highest_evicted:
            self._highest_evicted = oldest_id
        self.last_evicted = oldest_id

    def __repr__(self) -> str:
        return (
            f"GenerationBuffer({len(self)}/{self.capacity_generations} generations, "
            f"{self.stored_packets} packets, {self.evicted_generations} evicted)"
        )
