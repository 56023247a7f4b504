"""Tests for the multi-tenant session engine (repro.serving)."""

import collections

import pytest

from repro.core.document import CmifDocument
from repro.core.errors import PlaybackError, ValueError_
from repro.corpus import (generate_serving_corpus, make_media_document,
                          make_news_document)
from repro.serving import SessionEngine
from repro.timing.schedule import (ENGINE_REFERENCE, schedule_document,
                                   schedule_for)
from repro.transport import (FILTERABLE, PLAYABLE, PROFILES, UNPLAYABLE)
from repro.transport.requirements import compute_requirements
from repro.transport.environments import (PERSONAL_SYSTEM,
                                          SILENT_TERMINAL, WORKSTATION)


@pytest.fixture()
def engine():
    return SessionEngine()


@pytest.fixture(scope="module")
def media_documents():
    return [make_media_document(seed, events=14) for seed in range(6)]


class TestAdmission:
    def test_verdicts_route_sessions(self, engine):
        document = make_news_document(stories=1).document
        workstation = engine.admit(document, WORKSTATION)
        assert workstation.verdict == PLAYABLE
        assert workstation.admitted and not workstation.adapted
        personal = engine.admit(document, PERSONAL_SYSTEM)
        assert personal.verdict == FILTERABLE
        assert personal.admitted and personal.adapted
        terminal = engine.admit(document, SILENT_TERMINAL)
        assert terminal.verdict == UNPLAYABLE
        assert not terminal.admitted
        assert terminal.program is None

    def test_rejected_sessions_cannot_play(self, engine):
        document = make_news_document(stories=1).document
        session = engine.admit(document, SILENT_TERMINAL)
        with pytest.raises(PlaybackError, match="not admitted"):
            session.play()

    def test_admission_stats_by_environment(self, engine,
                                            media_documents):
        for document in media_documents:
            for environment in PROFILES:
                engine.admit(document, environment)
        for environment in PROFILES:
            stats = engine.stats[environment.name]
            assert stats.sessions == len(media_documents)
            assert (stats.playable + stats.filtered + stats.rejected
                    == stats.sessions)
        assert engine.stats[PERSONAL_SYSTEM.name].filtered > 0

    def test_one_walk_one_solve_per_document(self, engine,
                                             media_documents):
        """The tentpole sharing claim: N environments and M tenants
        cost one requirements walk and one solve per document."""
        for document in media_documents:
            for environment in PROFILES:
                for _ in range(3):
                    engine.admit(document, environment)
        assert engine.requirements_cache.misses == len(media_documents)
        assert engine.schedule_cache.misses <= len(media_documents)
        assert len(engine.schedule_cache) <= len(media_documents)

    def test_sessions_share_players_per_environment(self, engine):
        document = make_media_document(0, events=12)
        first = engine.admit(document, PERSONAL_SYSTEM)
        second = engine.admit(document, PERSONAL_SYSTEM)
        assert first.player is second.player
        assert first.program is second.program
        other = engine.admit(document, WORKSTATION)
        if other.admitted:
            assert other.player is not first.player


class TestOneCompilePerAdmission:
    @pytest.fixture()
    def compiles(self, monkeypatch):
        """Count CmifDocument.compile calls per (document, revision)."""
        counts = collections.Counter()
        original = CmifDocument.compile

        def counting(document):
            counts[(id(document), document.revision)] += 1
            return original(document)
        monkeypatch.setattr(CmifDocument, "compile", counting)
        return counts

    def test_cold_admission_compiles_once(self, compiles):
        engine = SessionEngine(seed=4)
        documents = [make_media_document(seed, events=20, rich=True)
                     for seed in range(4)]
        for document in documents:
            for environment in PROFILES:
                engine.admit(document, environment)
        assert set(compiles.values()) == {1}
        assert len(compiles) == len(documents)
        # The cache counters are those of one lookup per admission.
        assert engine.requirements_cache.misses == len(documents)
        assert engine.requirements_cache.hits \
            == len(documents) * (len(PROFILES) - 1)
        document = documents[0]
        document.bump_revision()
        engine.admit(document, WORKSTATION)
        assert compiles[(id(document), document.revision)] == 1

    def test_outputs_equal_separate_compiles(self):
        """Sharing one compile changes nothing: requirements, schedule
        and served reports equal those of an engine that compiles for
        the requirements walk and again for the solve."""
        for seed in range(3):
            document = make_media_document(seed, events=24, rich=True)
            shared = SessionEngine(seed=9)
            separate = SessionEngine(seed=9)
            separate.requirements_cache.requirements_for(document)
            for environment in PROFILES:
                one = shared.admit(document, environment)
                two = separate.admit(document, environment)
                assert one.verdict == two.verdict
                if not one.admitted:
                    continue
                assert one.schedule.times_ms == two.schedule.times_ms
                assert one.schedule.events == two.schedule.events
                for replay in range(2):
                    assert (one.play().materialize()
                            == two.play().materialize())
            assert (shared.requirements_cache.requirements_for(document)
                    == compute_requirements(document))
            assert (schedule_for(document,
                                 cache=shared.schedule_cache).times_ms
                    == schedule_document(document.compile(),
                                         engine=ENGINE_REFERENCE).times_ms)


class TestReplay:
    def test_session_replays_are_deterministic(self):
        document = make_media_document(2, events=12)
        reports = []
        for _ in range(2):
            engine = SessionEngine(seed=5)
            session = engine.admit(document, PERSONAL_SYSTEM)
            reports.append([session.play().materialize()
                            for _ in range(3)])
        assert reports[0] == reports[1]

    def test_distinct_sessions_draw_distinct_jitter(self, engine):
        document = make_media_document(2, events=12)
        first = engine.admit(document, PERSONAL_SYSTEM)
        second = engine.admit(document, PERSONAL_SYSTEM)
        report_a = first.play().materialize()
        report_b = second.play().materialize()
        assert first.seed != second.seed
        assert report_a != report_b  # jitter_ms > 0 on this profile

    def test_play_updates_session_and_stats(self, engine):
        document = make_media_document(2, events=12)
        session = engine.admit(document, PERSONAL_SYSTEM)
        events = engine.play(session, replays=4)
        assert session.replays_run == 4
        assert session.events_played == events > 0
        stats = engine.stats[PERSONAL_SYSTEM.name]
        assert stats.replays == 4
        assert stats.events_played == events

    def test_drive_round_robins_admitted_sessions(self, engine,
                                                  media_documents):
        sessions = [engine.admit(document, environment)
                    for document in media_documents
                    for environment in PROFILES]
        admitted = [session for session in sessions if session.admitted]
        performed = engine.drive(sessions, replays=2)
        assert performed == 2 * len(admitted)
        assert all(session.replays_run == 2 for session in admitted)
        assert all(session.replays_run == 0 for session in sessions
                   if not session.admitted)


class TestServe:
    def test_serve_reports_consistently(self, engine, media_documents):
        report = engine.serve(media_documents, PROFILES,
                              sessions_per_pair=2, replays=2)
        assert report.documents == len(media_documents)
        assert report.sessions == len(media_documents) * len(PROFILES) * 2
        assert report.admitted + report.rejected == report.sessions
        assert report.replays == report.admitted * 2
        assert report.events_played > 0
        text = report.describe()
        assert "sessions/s" in text
        for environment in PROFILES:
            assert environment.name in text

    def test_serve_validates_sessions_per_pair(self, engine,
                                               media_documents):
        with pytest.raises(ValueError_):
            engine.serve(media_documents, PROFILES, sessions_per_pair=0)

    def test_capability_twins_share_compiled_state(self, media_documents):
        """Two differently-named but identical environments hit the
        same program-cache entries (fingerprint keying)."""
        engine = SessionEngine()
        twin = PERSONAL_SYSTEM.degraded(name="thin-client")
        document = media_documents[0]
        original = engine.admit(document, PERSONAL_SYSTEM)
        mirrored = engine.admit(document, twin)
        assert mirrored.program is original.program

    def test_generated_package_corpus_serves(self, tmp_path):
        from repro.cli import load_document
        paths = generate_serving_corpus(tmp_path, documents=4, events=12,
                                        seed=3)
        documents = [load_document(str(path)) for path in paths]
        engine = SessionEngine()
        report = engine.serve(documents, PROFILES, replays=1)
        assert report.documents == 4
        assert report.admitted > 0

    def test_describe_mentions_caches(self, engine, media_documents):
        engine.serve(media_documents[:2], PROFILES, replays=1)
        text = engine.describe()
        assert "requirements cache" in text
        assert "schedule cache" in text
        assert "program cache" in text
