"""Shared fixtures for the benchmark harness.

Every bench regenerates one paper artifact (see DESIGN.md's
per-experiment index) and measures the subsystem that produces it.
The same index lists the shape claims these benches check.
"""

from __future__ import annotations

import pytest

from repro.corpus import make_news_document, make_paintings_fragment
from repro.timing import schedule_document


@pytest.fixture(scope="session")
def news_corpus():
    """The full broadcast: opening + 2 generic stories + paintings +
    closing."""
    return make_news_document(stories=2)


@pytest.fixture(scope="session")
def fragment_corpus():
    """The figure-10 paintings story on its own."""
    return make_paintings_fragment()


@pytest.fixture(scope="session")
def news_schedule(news_corpus):
    return schedule_document(news_corpus.document.compile())


@pytest.fixture(scope="session")
def fragment_schedule(fragment_corpus):
    return schedule_document(fragment_corpus.document.compile())
