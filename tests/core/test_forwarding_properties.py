"""Hypothesis property tests for forwarding tables and the buffer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forwarding import ForwardingTable
from repro.net.buffer import GenerationBuffer

hop_name = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
table_entries = st.dictionaries(
    keys=st.integers(min_value=0, max_value=1000),
    values=st.lists(hop_name, min_size=0, max_size=4, unique=True),
    max_size=12,
)


@given(entries=table_entries)
@settings(max_examples=80, deadline=None)
def test_serialize_parse_roundtrip(entries):
    table = ForwardingTable(entries)
    parsed = ForwardingTable.parse(table.serialize())
    assert parsed.entries == table.entries


@given(entries=table_entries)
@settings(max_examples=50, deadline=None)
def test_diff_with_self_is_zero(entries):
    table = ForwardingTable(entries)
    assert table.diff_entries(table.copy()) == 0
    assert table.update_fraction(table.copy()) == 0.0


@given(a=table_entries, b=table_entries)
@settings(max_examples=50, deadline=None)
def test_diff_is_symmetric(a, b):
    ta, tb = ForwardingTable(a), ForwardingTable(b)
    assert ta.diff_entries(tb) == tb.diff_entries(ta)


@given(
    capacity=st.integers(min_value=1, max_value=16),
    operations=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), st.booleans()), min_size=1, max_size=200
    ),
)
@settings(max_examples=60, deadline=None)
def test_buffer_never_exceeds_capacity(capacity, operations):
    buf = GenerationBuffer(capacity)
    accepted = []
    for gen_id, duplicate in operations:
        # Only a live generation can hold the packet a duplicate repeats.
        if buf.add(gen_id, duplicate=duplicate and gen_id in buf):
            accepted.append(gen_id)
        assert len(buf) <= capacity
    # The stored count is the accepted arrivals of the live generations.
    live = set(buf.generations())
    assert buf.stored_packets == sum(g in live for g in accepted)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    gen_ids=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60, unique=True),
)
@settings(max_examples=50, deadline=None)
def test_buffer_keeps_most_recent_insertions(capacity, gen_ids):
    # Reference model of the FIFO + stale-refusal semantics: inserting
    # evicts the oldest bucket when full, and a straggler at or below
    # the eviction high-water mark is refused (DESIGN.md §11) — it must
    # not displace a live generation.
    buf = GenerationBuffer(capacity)
    expected = []
    highest_evicted = -1
    for g in gen_ids:
        accepted = buf.add(g)
        if g <= highest_evicted:
            assert not accepted
            continue
        assert accepted
        if len(expected) >= capacity:
            evicted = expected.pop(0)
            highest_evicted = max(highest_evicted, evicted)
        expected.append(g)
    assert list(buf.generations()) == expected
    # Every id was accepted once (and either survived or was evicted) or
    # refused as stale; nothing is double-counted.
    assert buf.rejected_stale == len(gen_ids) - len(expected) - buf.evicted_generations
