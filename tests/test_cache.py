"""The one cache discipline (``repro.core.cache``) and its users.

Unit checks of the revision-keyed LRU, the stream-id table it fixed,
and a pin of the serving caches' hit/miss counts on a seeded run.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.cache import LRU, RevisionCache
from repro.core.errors import ValueError_
from repro.core.nodes import NodeKind
from repro.core.paths import node_path
from repro.core.tree import iter_preorder
from repro.corpus import make_media_document
from repro.corpus.workload import WorkloadSpec, build_workload
from repro.faults import parse_fault_plan
from repro.serving import SessionEngine
from repro.timing import schedule_for
from repro.transport.environments import PROFILES, WORKSTATION


class Owner:
    """A stand-in document: an identity with a revision."""

    def __init__(self) -> None:
        self.revision = 0


class TestLRU:
    def test_bound_and_recency(self):
        table = LRU(2)
        table.add("a", 1)
        table.add("b", 2)
        assert table.hit("a") == 1
        assert table.add("c", 3) == [("b", 2)]
        assert list(table) == ["a", "c"]
        assert table.hit("b") is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError_):
            LRU(0)

    def test_pickles_with_its_capacity(self):
        table = LRU(3)
        table.add("a", 1)
        copy = pickle.loads(pickle.dumps(table))
        assert copy.capacity == 3 and dict(copy) == {"a": 1}


class TestRevisionCache:
    def test_counts_and_builds_once(self):
        cache = RevisionCache(4)
        owner = Owner()
        builds = []
        for _ in range(3):
            cache.get_or_build(owner, "slot",
                               lambda: builds.append(1) or "value")
        assert (cache.hits, cache.misses, len(builds)) == (2, 1, 1)

    def test_new_revision_evicts_the_superseded_one(self):
        cache = RevisionCache(8)
        owner, other = Owner(), Owner()
        cache.store(owner, "a", 1)
        cache.store(owner, "b", 2)
        cache.store(other, "a", 3)
        owner.revision += 1
        assert cache.lookup(owner, "a") is None
        cache.store(owner, "a", 4)
        assert len(cache) == 2
        assert cache.lookup(other, "a") == 3
        assert cache.lookup(owner, "a") == 4

    def test_lru_eviction_keeps_the_index_in_step(self):
        cache = RevisionCache(2)
        owners = [Owner() for _ in range(3)]
        for owner in owners:
            cache.store(owner, None, id(owner))
        assert owners[0] not in cache
        assert cache._by_document.keys() == {id(owner)
                                             for owner in owners[1:]}
        cache.clear()
        assert len(cache) == 0 and not cache._by_document

    def test_take_and_restore_carry_entries_across_a_revision(self):
        cache = RevisionCache(8)
        owner, successor = Owner(), Owner()
        cache.store(owner, None, "base")
        cache.store(owner, "env", "adapted")
        owner.revision += 1
        taken = cache.take(owner)
        assert taken == {None: "base", "env": "adapted"}
        assert len(cache) == 0 and not cache._by_document
        for slot, value in taken.items():
            cache.restore(successor, slot, value)
        assert cache.lookup(successor, "env") == "adapted"

    def test_describe(self):
        cache = RevisionCache(2)
        cache.lookup(Owner())
        assert cache.describe() == "cache: 0 entr(y/ies), 0 hit(s), " \
                                   "1 miss(es)"


def test_stream_ids_follow_the_revision():
    """A session admitted after an edit streams the edited document's
    ids: the stream-id table is revision-keyed like every other."""
    workload = build_workload(WorkloadSpec(sites=3, topology="star",
                                           documents=2, events=8, seed=3))
    federation = workload.federation
    document = workload.documents[0]
    engine = SessionEngine(federation=federation, seed=1)
    streamed = []
    stream = federation.stream

    def recording(ids, *, origin=None):
        streamed.append(tuple(ids))
        return stream(ids, origin=origin)
    federation.stream = recording
    first = engine.admit(document, WORKSTATION, origin="site-0")
    first.play()
    assert streamed[-1] == federation.stream_ids_for(document)
    leaf = next(node for node in iter_preorder(document.root)
                if node.kind is NodeKind.EXT)
    engine.apply_edit(document, {"op": "remove", "path": node_path(leaf)},
                      sessions=[first])
    engine.admit(document, WORKSTATION, origin="site-0").play()
    assert streamed[-1] == federation.stream_ids_for(document)
    assert len(streamed[-1]) == len(streamed[0]) - 1


def test_players_outlive_in_place_patches():
    """A session admitted after a patched edit shares the earlier
    sessions' batch player: the program was patched in place, and a
    player flushes its tables on the patch epoch, so the player table
    keys by program identity, not revision."""
    document = make_media_document(3, events=10)
    leaf = schedule_for(document).events[0].event.node_path
    engine = SessionEngine(seed=1)
    first = engine.admit(document, WORKSTATION)
    record = engine.apply_edit(document, {"op": "retime", "path": leaf,
                                          "duration_ms": 4321.0},
                               sessions=[first])
    assert record.mode == "patched"
    second = engine.admit(document, WORKSTATION)
    assert second.program is first.program
    assert second.player is first.player


def test_degraded_replay_follows_a_live_edit():
    """The degraded (reference) path's lazily solved schedule is
    rebuilt when a live edit re-points the session, so a degraded
    replay after the edit equals the compiled replay of the edited
    document."""
    plan = next(plan for plan in (parse_fault_plan(f"seed={seed},"
                                                   f"replay=0.5")
                                  for seed in range(500))
                if all(plan.fires(plan.replay_failure_rate, "replay",
                                  (1, replay)) == (replay > 0)
                       for replay in range(3)))
    document = make_media_document(3, events=10)
    leaf = schedule_for(document).events[0].event.node_path
    engine = SessionEngine(seed=1, faults=plan)
    session = engine.admit(document, WORKSTATION)
    session.play()
    session.play()
    engine.apply_edit(document, {"op": "retime", "path": leaf,
                                 "duration_ms": 4321.0}, sessions=[session])
    degraded = session.play()
    compiled = session.player.run_one(environment=WORKSTATION,
                                      rng=session.rng_for(2))
    assert engine.robustness.degraded_replays == 2
    assert degraded.played == compiled.materialize().played


def test_serving_cache_counts_are_pinned():
    """(hits, misses) of the three serving caches after a seeded serve
    with a live edit script, then a second serve of the edited corpus.
    The values were read off the implementation before the caches
    shared one module; a drift means a lookup was added or lost."""
    documents = [make_media_document(seed, events=16, links=2)
                 for seed in (21, 22, 23)]
    leaves = [event.event.node_path
              for event in schedule_for(documents[0]).events]
    other = [event.event.node_path
             for event in schedule_for(documents[1]).events]
    script = [
        {"op": "retime", "path": leaves[0], "duration_ms": 1500.0,
         "at_step": 2},
        {"op": "add_arc", "owner": "/", "source": leaves[1],
         "destination": leaves[-1], "src_anchor": "end",
         "dst_anchor": "begin", "strictness": "may", "at_step": 5},
        {"op": "retime", "path": other[2], "duration_ms": 800.0,
         "at_step": 9, "document": 1},
        {"op": "remove", "path": leaves[3], "at_step": 12},
    ]
    engine = SessionEngine(seed=9)
    engine.serve(documents, PROFILES, sessions_per_pair=2, replays=3,
                 interactive_per_pair=1, edit_script=script)
    engine.serve(documents, PROFILES, sessions_per_pair=2, replays=3,
                 interactive_per_pair=1)
    counts = {name: (cache.hits, cache.misses) for name, cache in (
        ("schedule", engine.schedule_cache),
        ("requirements", engine.requirements_cache),
        ("program", engine.program_cache))}
    assert counts == {"schedule": (47, 3), "requirements": (49, 5),
                      "program": (85, 14)}
