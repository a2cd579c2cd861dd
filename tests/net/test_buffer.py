"""FIFO generation buffer tests (paper Fig. 5 semantics).

The buffer holds no packets: ``add(generation)`` counts one stored
arrival, ``add(generation, duplicate=True)`` one the row store (the
generation's ``Recoder``) called a duplicate — which verdict a packet
gets is tested with the recoder, what the buffer does with it here.
"""

import pytest

from repro.net.buffer import DEFAULT_BUFFER_GENERATIONS, GenerationBuffer


class TestBasics:
    def test_paper_default(self):
        assert DEFAULT_BUFFER_GENERATIONS == 1024
        assert GenerationBuffer().capacity_generations == 1024

    def test_add_and_query(self):
        buf = GenerationBuffer(4)
        buf.add(0)
        buf.add(0)
        assert len(buf) == 1
        assert buf.stored_packets == 2
        assert 0 in buf
        assert 1 not in buf

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GenerationBuffer(0)


class TestFifoEviction:
    def test_oldest_generation_evicted(self):
        buf = GenerationBuffer(2)
        buf.add(0)
        buf.add(1)
        buf.add(2)  # evicts generation 0
        assert 0 not in buf
        assert list(buf.generations()) == [1, 2]
        assert buf.evicted_generations == 1

    def test_existing_generation_never_evicts(self):
        buf = GenerationBuffer(2)
        buf.add(0)
        buf.add(1)
        for _ in range(10):
            buf.add(1)
        assert 0 in buf  # adding to gen 1 must not evict gen 0

    def test_eviction_order_is_insertion_order(self):
        buf = GenerationBuffer(3)
        for g in (5, 3, 9):  # insertion order, not numeric order
            buf.add(g)
        buf.add(1)
        assert 5 not in buf
        assert list(buf.generations()) == [3, 9, 1]

    def test_packet_count_tracks_eviction(self):
        buf = GenerationBuffer(1)
        buf.add(0)
        buf.add(0)
        assert buf.stored_packets == 2
        buf.add(1)
        assert buf.stored_packets == 1


class TestDirtyWireHardening:
    """Duplication + severe reordering must not distort accounting."""

    def test_duplicate_does_not_inflate_stored_packets(self):
        buf = GenerationBuffer(4)
        assert buf.add(0) is True
        assert buf.add(0, duplicate=True) is False  # wire-duplicated copy
        assert buf.stored_packets == 1
        assert buf.duplicate_packets == 1

    def test_distinct_packets_of_a_generation_still_fit(self):
        buf = GenerationBuffer(4)
        assert buf.add(0)
        assert buf.add(0)
        assert buf.stored_packets == 2

    def test_same_payload_in_different_generations_is_not_a_duplicate(self):
        buf = GenerationBuffer(4)
        # The verdict is per generation: the same bytes under another
        # generation id are a new row there, and the buffer counts them.
        assert buf.add(0)
        assert buf.add(1)
        assert buf.duplicate_packets == 0
        assert buf.stored_packets == 2

    def test_stale_straggler_cannot_evict_live_generations(self):
        buf = GenerationBuffer(2)
        buf.add(0)
        buf.add(1)
        buf.add(2)  # evicts generation 0
        assert buf.add(0) is False  # straggler for a dead generation
        assert buf.rejected_stale == 1
        assert list(buf.generations()) == [1, 2]  # live generations intact
        assert buf.evicted_generations == 1

    def test_duplicate_of_evicted_generation_is_stale_not_duplicate(self):
        buf = GenerationBuffer(1)
        buf.add(0)
        buf.add(1)  # evicts generation 0
        assert buf.add(0, duplicate=True) is False
        assert 0 not in buf
        assert buf.rejected_stale == 1
        assert buf.duplicate_packets == 0

    def test_severe_reordering_with_duplication(self):
        # Arrival order scrambled and every packet delivered twice: the
        # buffer must hold exactly one copy of each and never evict a
        # live generation to store a straggler.
        buf = GenerationBuffer(4)
        arrivals = [3, 0, 2, 1, 0, 3, 2, 1]  # each generation twice
        for gen in arrivals:
            buf.add(gen, duplicate=gen in buf)
        assert buf.stored_packets == 4
        assert buf.duplicate_packets == 4
        assert buf.evicted_generations == 0
        assert sorted(buf.generations()) == [0, 1, 2, 3]

    def test_accounting_survives_eviction_with_duplicates(self):
        buf = GenerationBuffer(2)
        for gen in (0, 0, 1, 1, 2, 2, 3, 3):  # duplicates throughout
            buf.add(gen, duplicate=gen in buf)
        assert len(buf) == 2
        assert buf.stored_packets == 2  # one live copy per buffered generation
        assert buf.evicted_generations == 2


class TestEvictionReport:
    """``last_evicted`` names what the most recent add() displaced."""

    def test_none_while_there_is_room(self):
        buf = GenerationBuffer(2)
        buf.add(0)
        assert buf.last_evicted is None
        buf.add(0)
        buf.add(1)
        assert buf.last_evicted is None

    def test_names_the_evicted_generation_for_one_add_only(self):
        buf = GenerationBuffer(2)
        buf.add(3)
        buf.add(1)
        buf.add(7)  # FIFO: evicts 3, the oldest *inserted*
        assert buf.last_evicted == 3
        buf.add(7)  # a generation already live
        assert buf.last_evicted is None
        buf.add(8)
        assert buf.last_evicted == 1

    def test_refused_packets_evict_nothing(self):
        buf = GenerationBuffer(2)
        buf.add(0)
        buf.add(1)
        buf.add(2)
        assert buf.last_evicted == 0
        assert buf.add(0) is False  # straggler: refused, not stored
        assert buf.last_evicted is None
        assert list(buf.generations()) == [1, 2]
        assert buf.add(2, duplicate=True) is False
        assert buf.last_evicted is None
        assert buf.evicted_generations == 1
