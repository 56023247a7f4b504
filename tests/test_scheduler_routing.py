"""Which solver production scheduling runs through.

Every production entry point solves cold through the compiled graph
(``repro.timing.graph.solve_graph``); the object-form ``solve()`` is an
oracle that only ``schedule_document(..., engine=ENGINE_REFERENCE)``
reaches — used by tests, benchmark checks and the serving
fault-degradation path, which must keep falling back to it.
"""

import sys

import pytest

from repro.corpus import generate_corpus, ingest_corpus, make_media_document
from repro.pipeline.player import Player
from repro.pipeline.viewer import render_authoring_view
from repro.serving import SessionEngine
from repro.timing import ScheduleCache, graph, schedule_for, solver
from repro.transport.environments import WORKSTATION


@pytest.fixture()
def calls(monkeypatch):
    """Count calls to both solvers, wherever a module bound them."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    counts = {"graph": 0, "reference": 0}
    originals = {"reference": ("solve", solver.solve),
                 "graph": ("solve_graph", graph.solve_graph)}
    for label, (name, original) in originals.items():
        def counting(*args, _label=label, _original=original, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)
        for module_name, module in list(sys.modules.items()):
            if (module_name.startswith("repro")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    return counts


def test_schedule_for_solves_through_the_graph(calls):
    cache = ScheduleCache()
    document = make_media_document(1, events=12)
    first = schedule_for(document, cache=cache)
    assert schedule_for(document, cache=cache) is first
    assert calls == {"graph": 1, "reference": 0}


def test_admission_solves_through_the_graph(calls):
    engine = SessionEngine(seed=3)
    session = engine.admit(make_media_document(2, events=12), WORKSTATION)
    assert session.admitted
    assert calls == {"graph": 1, "reference": 0}


def test_ingest_solves_through_the_graph(calls, tmp_path):
    generate_corpus(tmp_path, documents=3, events=20, seed=5)
    report = ingest_corpus(tmp_path)
    assert report.document_count == 3
    assert calls == {"graph": 3, "reference": 0}


def test_player_and_viewer_solve_through_the_graph(calls):
    document = make_media_document(4, events=12)
    Player(WORKSTATION, seed=1).play_document(document)
    render_authoring_view(document)
    assert calls == {"graph": 2, "reference": 0}


def test_degraded_admission_still_solves_through_the_reference(calls):
    engine = SessionEngine(seed=3, faults="seed=1,solve=1.0")
    document = make_media_document(2, events=12)
    session = engine.admit(document, WORKSTATION)
    assert session.admitted
    assert engine.robustness.degraded_solves == 1
    assert calls == {"graph": 0, "reference": 1}
    # A second degraded admission of the same revision is a cache hit.
    engine.admit(document, WORKSTATION)
    assert calls == {"graph": 0, "reference": 1}
    assert (engine.schedule_cache.hits, engine.schedule_cache.misses) \
        == (1, 1)
