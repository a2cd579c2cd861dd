"""The basis memory: advisory, plane-scoped, takeover-surviving, bounded.

A :data:`~repro.fleet.planner.BasisMemory` maps an LP ``signature`` to the
few bases last found optimal for it; a plane hands one object to every
manager it ever builds.  Four contracts:

- **advisory** — whatever the memory holds (Hypothesis pre-poisons it with
  wrong-length, duplicate, out-of-range, singular, primal-infeasible,
  feasible-but-not-optimal and other-shape index tuples), every decision
  equals the cold plane's, which never reads it, and nothing raises;
- **takeover-surviving** — a successor's first join of a known signature
  is answered from the memory with zero pivots;
- **run-scoped** — a fresh plane in the same process replays a seed with
  the same warm hits, whatever ran before it;
- **bounded** — per signature in the memory and per prepared program in
  the solver, :data:`~repro.lp.simplex.KEPT_BASES` entries, oldest out.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.churn import JOIN, ChurnTrace
from repro.fleet.manager import COLD, INCREMENTAL, FleetManager
from repro.fleet.planner import BasisMemory
from repro.fleet.soak import soak_datacenters
from repro.lp.simplex import KEPT_BASES, PreparedProgram
from repro.net.events import EventScheduler
from repro.shard.plane import ShardedControlPlane
from tests.fleet.churn_recipe import drive_churn_recipe
from tests.lp.test_simplex_equivalence import _packing_lp

CHURN_SEED = 5


def _churned(mode: str, memory: BasisMemory) -> tuple[tuple, ShardedControlPlane]:
    """Seeded churn over the shard soak's tight-quota plane, one primary crash; (decisions, plane)."""
    scheduler = EventScheduler()
    plane = ShardedControlPlane(
        3, soak_datacenters(8), scheduler, manager_kwargs={"mode": mode, "basis_memory": memory}
    )
    trace = ChurnTrace.generate(
        CHURN_SEED, duration_s=20.0, arrival_rate_per_s=2.5, mean_holding_s=12.0, delay_choices_ms=(16.0, 80.0)
    )
    for event in trace.events:
        if event.kind == JOIN:
            scheduler.schedule_at(event.time_s, plane.submit, event.spec)
        else:
            scheduler.schedule_at(event.time_s, plane.depart, event.session_id)
    shard = plane.shards[sorted(plane.shards)[0]]
    scheduler.schedule_at(6.0, shard.replicas[0].crash)
    scheduler.run(until=60.0)
    plane.stop()
    tables = [plane.shards[s].manager.forwarding_tables() for s in sorted(plane.shards)]
    return ([v.canonical() for v in plane.verdicts], plane.canonical(), tables), plane


@functools.cache
def _reference() -> tuple[tuple, BasisMemory, dict[str, int]]:
    """(the cold plane's decisions, what a clean plane learns on the way to them, columns per signature)."""
    learned: BasisMemory = {}
    columns: dict[str, int] = {}
    real_solve = FleetManager._solve

    def recording_solve(manager, lp):
        columns[lp.signature] = len(lp.shape.c)
        return real_solve(manager, lp)

    cold, _ = _churned(COLD, {})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FleetManager, "_solve", recording_solve)
        assert _churned(INCREMENTAL, learned)[0] == cold and len(learned) > 10
    return cold, learned, columns


@st.composite
def poisoned_memories(draw: st.DrawFn) -> BasisMemory:
    _, learned, columns = _reference()
    memory: BasisMemory = {}
    for signature in draw(st.lists(st.sampled_from(sorted(learned)), min_size=1, max_size=12, unique=True)):
        n, m = columns[signature], len(learned[signature][0])  # the standard form is m x (n + m)
        slack = tuple(range(n, n + m))  # x = 0: always primal-feasible, never optimal
        poison = st.one_of(
            st.lists(st.integers(-2, n + m + 2), max_size=m + 2).map(tuple),  # any length, range, repeats
            st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m, unique=True).map(tuple),  # mostly singular
            st.just(slack),
            # One structural column pivoted into the slack basis: a vertex, feasible or not.
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)).map(lambda at: slack[: at[0]] + (at[1],) + slack[at[0] + 1 :]),
            st.sampled_from(sorted(learned)).map(lambda other: learned[other][0]),  # another shape's optimum
            st.permutations(learned[signature][0]).map(tuple),  # the optimum, rows shuffled
        )
        memory[signature] = draw(st.lists(poison, min_size=1, max_size=KEPT_BASES + 2))
    return memory


@settings(max_examples=30, deadline=None)
@given(memory=poisoned_memories())
def test_the_memory_is_advisory(memory: BasisMemory):
    assert _churned(INCREMENTAL, memory)[0] == _reference()[0]
    assert all(len(bases) <= KEPT_BASES + 2 for bases in memory.values())


def test_the_cold_oracle_never_reads_or_writes_it():
    cold, learned, _ = _reference()
    memory: BasisMemory = {signature: [(0,)] for signature in learned}
    decisions, plane = _churned(COLD, memory)
    assert decisions == cold
    assert memory == {signature: [(0,)] for signature in learned}
    assert not any(v.warm_started for v in plane.verdicts)


def test_a_successors_first_join_of_a_known_signature_takes_no_pivot(churned_seed_11):
    plane = churned_seed_11.run.plane
    successors = [shard.manager for shard in plane.shards.values()]
    successors += [manager for shard in plane.shards.values() for manager in shard.zombies[1:]]
    assert len(successors) == 8, "one successor per takeover"
    assert all(m.basis_memory is successors[0].basis_memory for m in successors), "one memory per plane"
    firsts = [next(s for s in churned_seed_11.solves if s.manager is manager) for manager in successors]
    known_firsts = [first.result for first in firsts if first.known_signature]
    assert len(known_firsts) >= 4, "the recipe must hand successors known signatures"
    assert all(result.warm_started and result.iterations == 0 for result in known_firsts)


def test_a_fresh_plane_replays_a_seed_with_identical_warm_hits():
    def warm_trace(seed: int) -> list[tuple[int, bool]]:
        return [(v.session_id, v.warm_started) for v in drive_churn_recipe(seed, 3).plane.verdicts]

    first = warm_trace(11)
    warm_trace(12)  # another run's bases must not leak into the replay
    assert warm_trace(11) == first
    assert sum(warm for _, warm in first) > 50


def test_memory_and_prepared_program_are_bounded():
    c, a, b, bounds = _packing_lp(7, 10, 12)
    bounded = [j for j, (_, hi) in enumerate(bounds) if hi is not None]
    upper = [bounds[j][1] for j in bounded]
    program = PreparedProgram(c, a, bounded=bounded)
    optimum = program.solve(b, upper=upper).basis
    # One optimal basis under several row orders: distinct keys, each of them usable.
    bases = [optimum[i:] + optimum[:i] for i in range(KEPT_BASES + 3)]
    for basis in bases:
        assert program.solve(b, upper=upper, initial_bases=[basis]).warm_started
        assert len(program._known) <= KEPT_BASES
    assert list(program._known) == bases[-KEPT_BASES:], "the least recently tried goes first"
    program.solve(b, upper=upper, initial_bases=[bases[-KEPT_BASES]])
    assert list(program._known)[-1] == bases[-KEPT_BASES], "a retry refreshes recency"

    manager = FleetManager(soak_datacenters(8))
    spec = ChurnTrace.generate(1, duration_s=20.0, delay_choices_ms=(80.0,)).joins[0].spec
    assert manager.admit(spec).admitted
    ((signature, (learned,)),) = manager.basis_memory.items()
    manager.basis_memory[signature] = [learned[i:] + learned[:i] for i in range(1, KEPT_BASES + 3)]
    manager.depart(spec.session_id)
    assert manager.admit(spec).warm_started
    kept = manager.basis_memory[signature]
    assert len(kept) == KEPT_BASES and kept[0] == learned[1:] + learned[:1], "most recent first"
