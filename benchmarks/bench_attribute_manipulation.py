"""§6 — attribute-only document manipulation vs payload scanning.

The paper's efficiency argument: "much of the work associated with
manipulating a document can be based on relatively small clusters of
data (the attributes) rather than the often massive amounts of
media-based data itself."  This bench measures both sides on the news
archive: a keyword search over descriptors (never materializing a
payload) against a strawman scan that materializes every block, and
reports the speed ratio and the byte volumes involved.

Shape claim (DESIGN.md, "Per-experiment index"): attribute search
reads zero payload bytes and is at least an order of magnitude faster than the payload
scan on this corpus.
"""

import time

from repro.store.query import keyword, medium_is, run


def _attribute_search(store):
    return run(store, keyword("painting") & medium_is("image"))


def _payload_scan(store):
    """The strawman: look at the actual data to find image blocks.

    Materializes every payload (running the lazy generators), which is
    what a system without descriptors would have to do.
    """
    found = []
    for descriptor in store.descriptors():
        if descriptor.block_id is None:
            continue
        block = store.block_for(descriptor.descriptor_id)
        payload = block.materialize()
        shape = getattr(payload, "shape", None)
        if shape is not None and len(shape) == 3 and shape[-1] == 3:
            if "painting" in descriptor.get("keywords", ()):
                found.append(descriptor)
    return found


def test_attribute_search_is_payload_free(benchmark, news_corpus):
    store = news_corpus.store

    results = benchmark(_attribute_search, store)

    store.stats.reset()
    again = _attribute_search(store)
    assert [d.descriptor_id for d in again] == [
        d.descriptor_id for d in results]
    assert store.stats.payload_reads == 0
    assert results, "the archive holds painting images"

    print(f"\n[attr] keyword search found {len(results)} descriptors "
          f"with 0 payload reads")


def test_attribute_search_vs_payload_scan(benchmark, news_corpus):
    store = news_corpus.store

    # Time the strawman once by hand (it is far too slow to benchmark
    # with full statistical rigour, which is itself the result).
    start = time.perf_counter()
    scanned = _payload_scan(store)
    scan_seconds = time.perf_counter() - start
    scan_bytes = store.stats.payload_bytes

    store.stats.reset()
    searched = benchmark(_attribute_search, store)

    start = time.perf_counter()
    _attribute_search(store)
    search_seconds = max(time.perf_counter() - start, 1e-9)

    assert {d.descriptor_id for d in searched} == {
        d.descriptor_id for d in scanned}
    ratio = scan_seconds / search_seconds
    assert ratio > 10.0, (
        f"attribute search should beat payload scanning by >10x, "
        f"got {ratio:.1f}x")

    print(f"\n[attr] payload scan: {scan_seconds * 1000.0:.1f}ms over "
          f"{scan_bytes / 1e6:.1f}MB materialized; attribute search: "
          f"{search_seconds * 1000.0:.3f}ms over descriptors only "
          f"-> {ratio:.0f}x faster")


def test_scheduling_is_attribute_only(benchmark, news_corpus):
    """The paper's deeper point: the whole pipeline front half never
    needs the data.  Scheduling the entire broadcast reads 0 payload
    bytes."""
    from repro.timing import schedule_document
    store = news_corpus.store
    compiled = news_corpus.document.compile()

    store.stats.reset()
    schedule = benchmark(schedule_document, compiled)

    assert store.stats.payload_reads == 0
    assert schedule.total_duration_ms > 0

    print(f"\n[attr] scheduled {len(schedule.events)} events "
          f"({schedule.total_duration_ms / 1000.0:.0f}s of media) with "
          f"0 payload bytes touched")
