"""Incremental scheduling: delta layer, seeded re-relaxation, cache.

The tentpole property: after *any* sequence of edits, the incremental
engine's schedule is bit-identical to a from-scratch
``schedule_document`` call on the edited document — same times, same
events, same dropped may constraints.  The randomized sequences below
mix the attribute edits that take the fast path (retime, add/remove
arc) with the topology edits that rebuild (splice/move subtree,
reorder, duplicate, remove), plus the may-arc relaxation fallback.

Durations are integral milliseconds so longest-path sums are exact in
floating point; equality below is ``==``, not approx.
"""

from __future__ import annotations

import random

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.edit import add_arc, remove_arc, retime
from repro.core.errors import SchedulingConflict, StructureError
from repro.core.syncarc import Strictness, SyncArc
from repro.core.timebase import MediaTime
from repro.timing import (ENGINE_REFERENCE, RELAX_DROP_LAST,
                          RELAXATION_POLICIES, ConstraintIndex,
                          IncrementalScheduler, IncrementalSolver,
                          ScheduleCache, build_constraints, check_solution,
                          retime_delta, schedule_document, schedule_for,
                          solve)

_MEDIA = ("video", "audio", "image", "text")


def _make_document(seed: int, *, sections: int = 6,
                   events_per: int = 10, channels: int = 4):
    """A named-node random document (names keep paths stable)."""
    rng = random.Random(seed)
    builder = DocumentBuilder(f"doc-{seed}", root_kind="seq")
    names = []
    for index in range(channels):
        name = f"ch{index}"
        builder.channel(name, _MEDIA[index % len(_MEDIA)])
        names.append(name)
    for section in range(sections):
        opener = builder.seq if rng.random() < 0.5 else builder.par
        with opener(f"sec{section}"):
            for event in range(rng.randrange(4, events_per)):
                builder.imm(f"e{section}-{event}",
                            channel=rng.choice(names),
                            data=f"event {section}/{event}",
                            duration=MediaTime.ms(
                                float(rng.randrange(100, 3000))))
    return builder.build(validate=False)


def _reference(document, policy=RELAX_DROP_LAST):
    return schedule_document(document.compile(), relaxation_policy=policy,
                             engine=ENGINE_REFERENCE)


def _assert_identical(engine, document, policy=RELAX_DROP_LAST):
    reference = _reference(document, policy)
    schedule = engine.schedule
    assert schedule.times_ms == reference.times_ms
    assert ([(e.event.node_path, e.begin_ms, e.end_ms)
             for e in schedule.events]
            == [(e.event.node_path, e.begin_ms, e.end_ms)
                for e in reference.events])
    assert ([c.describe() for c in schedule.dropped_constraints]
            == [c.describe() for c in reference.dropped_constraints])
    # The incremental solution satisfies its own (edited) system.
    system = build_constraints(document.compile())
    kept = [v for v in check_solution(system, schedule.times_ms)
            if not v.relaxable]
    assert kept == []


def _leaf_paths(document):
    return [f"/sec{i}/{child.name}"
            for i, section in enumerate(document.root.children)
            for child in section.children]


# -- randomized edit sequences ------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_randomized_edit_sequence_equivalence(seed):
    """Mixed retime / arc / topology edits stay identical to full solves."""
    rng = random.Random(1000 + seed)
    document = _make_document(seed)
    engine = IncrementalScheduler(document)
    _assert_identical(engine, document)
    for step in range(30):
        try:
            _random_edit(rng, document, engine, step)
        except SchedulingConflict:
            # An edit (e.g. a reorder turning a must arc backward) made
            # the document genuinely unschedulable; the full solve must
            # agree, and removing the explicit arcs recovers.
            with pytest.raises(SchedulingConflict):
                _reference(document)
            while document.root.arcs:
                try:
                    engine.remove_arc("/", 0)
                except SchedulingConflict:
                    pass  # still conflicted until enough arcs are gone
        _assert_identical(engine, document)
    assert engine.stats.edits > 0
    assert engine.stats.incremental_solves > 0


def _random_edit(rng, document, engine, step):
    sections = [node.name for node in document.root.children]
    leaves = [(section.name, child.name)
              for section in document.root.children
              for child in section.children if child.is_leaf]
    operation = rng.random()
    if operation < 0.45 and leaves:
        section, leaf = rng.choice(leaves)
        engine.retime(f"/{section}/{leaf}",
                      float(rng.randrange(100, 3000)))
    elif operation < 0.60 and len(sections) >= 2:
        first, second = sorted(rng.sample(range(len(sections)), 2))
        if rng.random() < 0.5:
            arc = SyncArc(source=sections[first],
                          destination=sections[second],
                          min_delay=MediaTime.ms(0.0), max_delay=None)
        else:
            arc = SyncArc(source=sections[first],
                          destination=sections[second],
                          strictness=Strictness.MAY,
                          min_delay=MediaTime.ms(0.0),
                          max_delay=MediaTime.ms(
                              float(rng.randrange(1000, 20000))))
        engine.add_arc("/", arc)
    elif operation < 0.70 and document.root.arcs:
        engine.remove_arc("/", rng.randrange(len(document.root.arcs)))
    elif operation < 0.80 and len(sections) >= 2 and leaves:
        # move subtree: splice a leaf into a different section
        section, leaf = rng.choice(leaves)
        target = rng.choice([s for s in sections if s != section])
        engine.splice(f"/{section}/{leaf}", f"/{target}")
    elif operation < 0.90 and len(sections) >= 2:
        engine.reorder("/", rng.choice(sections),
                       rng.randrange(len(sections)))
    elif leaves:
        section, leaf = rng.choice(leaves)
        if rng.random() < 0.5:
            engine.duplicate(f"/{section}/{leaf}", f"dup{step}")
        elif len(leaves) > 4:
            engine.remove(f"/{section}/{leaf}")


def test_incremental_path_is_used_for_attribute_edits():
    document = _make_document(42)
    engine = IncrementalScheduler(document)
    rebuilds_before = engine.stats.full_rebuilds
    engine.retime(_leaf_paths(document)[0], 777.0)
    engine.add_arc("/", SyncArc(source="sec0", destination="sec1",
                                min_delay=MediaTime.ms(0.0),
                                max_delay=None))
    engine.remove_arc("/", 0)
    assert engine.stats.incremental_solves == 3
    assert engine.stats.full_rebuilds == rebuilds_before
    assert engine.stats.last_changed_vars >= 0


def test_topology_edits_rebuild():
    document = _make_document(43)
    engine = IncrementalScheduler(document)
    before = engine.stats.full_rebuilds
    engine.reorder("/", "sec1", 0)
    assert engine.stats.full_rebuilds == before + 1
    assert engine.stats.last_mode == "rebuild"
    _assert_identical(engine, document)


# -- may-arc relaxation fallback ----------------------------------------------


def _two_leaf_document():
    builder = DocumentBuilder("pair", root_kind="seq")
    builder.channel("c", "text")
    builder.imm("a", channel="c", data="a", duration=MediaTime.ms(1000))
    builder.imm("b", channel="c", data="b", duration=MediaTime.ms(1000))
    return builder.build(validate=False)


def _may_conflicted_document():
    """Three events in sequence and three may arcs that cannot all hold.

    The relaxation policies resolve it differently: drop-last gives up
    all three arcs, drop-widest only the two upper windows.
    """
    builder = DocumentBuilder("trio", root_kind="seq")
    builder.channel("c", "text")
    for name in "abc":
        builder.imm(name, channel="c", data=name,
                    duration=MediaTime.ms(1000))
    document = builder.build(validate=False)
    for source, destination, offset, window in (("a", "c", 0.0, 1500.0),
                                                ("b", "c", 0.0, 200.0),
                                                ("a", "b", 1500.0, None)):
        add_arc(document, "/", SyncArc(
            source=source, destination=destination,
            strictness=Strictness.MAY, offset=MediaTime.ms(offset),
            min_delay=MediaTime.ms(0.0),
            max_delay=(MediaTime.ms(window) if window is not None
                       else None)))
    return document


def _assert_same_result(mine, theirs):
    assert mine.times_ms == theirs.times_ms
    assert ([c.describe() for c in mine.dropped]
            == [c.describe() for c in theirs.dropped])
    assert mine.iterations == theirs.iterations


@pytest.mark.parametrize("policy", RELAXATION_POLICIES)
def test_may_arc_conflict_falls_back_and_matches(policy):
    document = _two_leaf_document()
    engine = IncrementalScheduler(document, relaxation_policy=policy)
    # b must start 1000ms after a ends (seq), but the may arc wants it
    # within 500ms of a's begin: a positive cycle through the may upper
    # bound, resolvable only by dropping it.
    engine.add_arc("/", SyncArc(source="a", destination="b",
                                strictness=Strictness.MAY,
                                min_delay=MediaTime.ms(0.0),
                                max_delay=MediaTime.ms(500.0)))
    assert engine.stats.fallbacks == 1
    assert len(engine.schedule.dropped_constraints) == 1
    _assert_identical(engine, document, policy)
    assert (engine.schedule.solver_iterations
            == _reference(document, policy).solver_iterations)


def test_degraded_documents_keep_full_solving():
    document = _two_leaf_document()
    engine = IncrementalScheduler(document)
    engine.add_arc("/", SyncArc(source="a", destination="b",
                                strictness=Strictness.MAY,
                                min_delay=MediaTime.ms(0.0),
                                max_delay=MediaTime.ms(500.0)))
    fallbacks = engine.stats.fallbacks
    engine.retime("/a", 2000.0)  # still conflicted: full solve again
    assert engine.stats.fallbacks == fallbacks + 1
    _assert_identical(engine, document)
    # Removing the conflicting arc restores the incremental path.
    engine.remove_arc("/", 0)
    _assert_identical(engine, document)
    assert not engine.schedule.dropped_constraints
    engine.retime("/a", 500.0)
    assert engine.stats.last_mode == "incremental"
    _assert_identical(engine, document)


def test_must_conflict_raises_and_recovers():
    document = _two_leaf_document()
    engine = IncrementalScheduler(document)
    with pytest.raises(SchedulingConflict):
        engine.add_arc("/", SyncArc(source="a", destination="b",
                                    min_delay=MediaTime.ms(0.0),
                                    max_delay=MediaTime.ms(500.0)))
    with pytest.raises(SchedulingConflict):
        engine.schedule
    # The edit stayed applied (tools signal problems, not revert); the
    # companion full solve fails identically.
    with pytest.raises(SchedulingConflict):
        _reference(document)
    engine.remove_arc("/", 0)
    _assert_identical(engine, document)


# -- solver-level API --------------------------------------------------------


@pytest.mark.parametrize("policy", RELAXATION_POLICIES)
def test_incremental_solver_matches_solve_exactly(policy):
    document = _make_document(7)
    system = build_constraints(document.compile())
    solver = IncrementalSolver(system, relaxation_policy=policy)
    _assert_same_result(solver.result,
                        solve(build_constraints(document.compile()),
                              relaxation_policy=policy))

    index = ConstraintIndex(system)
    path = _leaf_paths(document)[3]
    delta = retime_delta(index, path, 1234.0)
    index.apply(delta)
    outcome = solver.apply(delta)
    assert outcome.mode == "incremental"
    retime(document, path, 1234.0)
    reference = solve(build_constraints(document.compile()),
                      relaxation_policy=policy)
    assert solver.result.times_ms == reference.times_ms
    # changed set is sound: every var whose time moved is reported
    assert outcome.changed is not None

    # May relaxation: the same victims, in the same order, in the same
    # number of attempts as solve() under this policy.
    conflicted = _may_conflicted_document()
    _assert_same_result(
        IncrementalSolver(build_constraints(conflicted.compile()),
                          relaxation_policy=policy).result,
        solve(build_constraints(conflicted.compile()),
              relaxation_policy=policy))

    # A must cycle: the same conflict message and cycle.
    must = _two_leaf_document()
    add_arc(must, "/", SyncArc(source="a", destination="b",
                               min_delay=MediaTime.ms(0.0),
                               max_delay=MediaTime.ms(500.0)))
    with pytest.raises(SchedulingConflict) as expected:
        solve(build_constraints(must.compile()), relaxation_policy=policy)
    with pytest.raises(SchedulingConflict) as actual:
        IncrementalSolver(build_constraints(must.compile()),
                          relaxation_policy=policy)
    assert str(actual.value) == str(expected.value)
    assert ([c.describe() for c in actual.value.cycle]
            == [c.describe() for c in expected.value.cycle])


def test_removal_sequences_keep_dependents_index_consistent():
    """Repeated removal deltas exercise the cached support index.

    The dependents map is built once and then maintained incrementally
    across applies; every intermediate solution must still match a
    from-scratch solve (a stale index would mis-scope the reset region
    and leave wrong times behind).
    """
    for seed in (3, 9, 14):
        rng = random.Random(seed * 101)
        document = _make_document(seed)
        engine = IncrementalScheduler(document)
        leaf_paths = _leaf_paths(document)
        for edit in range(8):
            first, second = sorted(rng.sample(range(len(leaf_paths)), 2))
            # Forward lower-bound arcs only: always satisfiable, so every
            # removal takes the incremental (cached-index) path.
            engine.add_arc("/", SyncArc(
                source=leaf_paths[first],
                destination=leaf_paths[second],
                offset=MediaTime.ms(float(rng.randrange(0, 500))),
                min_delay=MediaTime.ms(0.0), max_delay=None))
        while document.root.arcs:
            engine.remove_arc("/", len(document.root.arcs) - 1)
            _assert_identical(engine, document)


def test_retime_delta_replaces_duration_pair():
    document = _make_document(8)
    system = build_constraints(document.compile())
    index = ConstraintIndex(system)
    path = _leaf_paths(document)[0]
    old_pair = index.duration_constraints(path)
    assert len(old_pair) == 2
    delta = retime_delta(index, path, 555.0)
    assert delta.removed == old_pair
    assert {c.weight_ms for c in delta.added} == {555.0, -555.0}
    before = len(system.constraints)
    system.apply_delta(delta)
    index.apply(delta)
    assert len(system.constraints) == before
    assert index.duration_constraints(path) == delta.added


# -- the revision counter and the schedule cache ------------------------------


def test_edits_bump_revision():
    document = _make_document(9)
    assert document.revision == 0
    retime(document, _leaf_paths(document)[0], 800.0)
    assert document.revision == 1
    add_arc(document, "/", SyncArc(source="sec0", destination="sec1",
                                   min_delay=MediaTime.ms(0.0),
                                   max_delay=None))
    assert document.revision == 2
    remove_arc(document, "/", 0)
    assert document.revision == 3
    with pytest.raises(StructureError):
        remove_arc(document, "/", 5)
    assert document.revision == 3  # failed edits do not bump


def test_schedule_cache_hits_and_invalidation():
    document = _make_document(10)
    cache = ScheduleCache()
    first = schedule_for(document, cache=cache)
    again = schedule_for(document, cache=cache)
    assert again is first
    assert (cache.hits, cache.misses) == (1, 1)
    retime(document, _leaf_paths(document)[0], 450.0)
    fresh = schedule_for(document, cache=cache)
    assert fresh is not first
    assert cache.misses == 2


def test_engine_publishes_to_cache():
    document = _make_document(11)
    cache = ScheduleCache()
    engine = IncrementalScheduler(document, cache=cache)
    assert cache.get(document) is engine.schedule
    engine.retime(_leaf_paths(document)[0], 999.0)
    assert cache.get(document) is engine.schedule
    assert cache.misses == 0  # the engine published; nobody had to solve


def test_schedule_cache_capacity_is_bounded():
    cache = ScheduleCache(capacity=2)
    documents = [_make_document(s, sections=2, events_per=6)
                 for s in range(4)]
    for document in documents:
        schedule_for(document, cache=cache)
    assert len(cache) == 2
    assert cache.get(documents[-1]) is not None
