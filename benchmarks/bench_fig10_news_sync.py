"""fig10 — the news report fragment's synchronization structure.

The centrepiece reproduction: section 5.3.4's contrived fragment with
every synchronization relationship the paper walks through.  The bench
schedules the fragment and asserts each claim; a second bench plays it
on the workstation device model and shows all must windows hold while
the may-synchronized labels are allowed to drift.

Shape claims (DESIGN.md, "Per-experiment index"; quoting section
5.3.4):
1. "the graphic channel is synchronized with the start of the audio
   portion of the report";
2. "within the graphic channel, each illustration is sequentially
   synchronized" — implied between one and two, explicit between two
   and three;
3. "the captioned text is start-synchronized with the video portion ...
   not synchronized at all with the audio";
4. "a synchronization arc is drawn from the end of the second caption
   block to the start of the second graphic; this illustrates the use
   of an offset within an arc";
5. "at the end of the fourth caption block, an arc is drawn to the
   video portion to indicate that a new video sequence may not start
   until the caption text is over.  This may require a freeze-frame
   video operation";
6. labels use may synchronization ("if the label is a little late,
   then there is no reason for panic").
"""

import pytest

from repro.pipeline.player import Player
from repro.timing import schedule_document
from repro.transport.environments import WORKSTATION

STORY = "/story-paintings"


def test_fig10_schedule_reproduces_every_claim(benchmark,
                                               fragment_corpus):
    compiled = fragment_corpus.document.compile()

    schedule = benchmark(schedule_document, compiled)

    # Claim 1: graphic starts with audio.
    assert schedule.node_begin_ms(f"{STORY}/graphic-track") == \
        schedule.node_begin_ms(f"{STORY}/audio-track")

    # Claim 2: graphics run sequentially; two->three is the explicit arc.
    one = schedule.event_for_path(f"{STORY}/graphic-track/painting-one")
    two = schedule.event_for_path(f"{STORY}/graphic-track/painting-two")
    three = schedule.event_for_path(
        f"{STORY}/graphic-track/insurance-graph")
    assert one.end_ms <= two.begin_ms
    assert three.begin_ms == pytest.approx(two.end_ms)

    # Claim 3: captions start with the video track.
    assert schedule.node_begin_ms(f"{STORY}/caption-track") == \
        schedule.node_begin_ms(f"{STORY}/video-track")

    # Claim 4: the offset arc places the second graphic exactly 1s
    # after the second caption ends.
    location = schedule.event_for_path(f"{STORY}/caption-track/location")
    assert two.begin_ms == pytest.approx(location.end_ms + 1000.0)

    # Claim 5: the freeze-frame hold — the third video segment waits
    # for the long fourth caption even though the second video segment
    # ended earlier.
    crime = schedule.event_for_path(
        f"{STORY}/video-track/crime-scene-report")
    value = schedule.event_for_path(
        f"{STORY}/caption-track/painting-value")
    head2 = schedule.event_for_path(
        f"{STORY}/video-track/talking-head-2")
    hold_ms = value.end_ms - crime.end_ms
    assert hold_ms > 0, "the hold must actually occur"
    assert head2.begin_ms == pytest.approx(value.end_ms)

    # Claim 6: labels land on their linked times.
    museum = schedule.event_for_path(f"{STORY}/label-track/museum-name")
    assert museum.begin_ms == pytest.approx(one.begin_ms + 10_000.0)

    print(f"\n[fig10] all six section-5.3.4 claims hold; "
          f"freeze-frame hold is {hold_ms / 1000.0:g}s; "
          f"story spans {schedule.total_duration_ms / 1000.0:g}s")
    for event in schedule.events:
        print(f"  {event}")


def test_fig10_playback_honours_strictness(benchmark, fragment_schedule):
    player = Player(WORKSTATION, seed=1991)

    report = benchmark(player.play, fragment_schedule)

    # Must arcs all hold on the workstation device model.
    assert report.must_violations == []
    # The may-synchronized labels are permitted to drift; whether they
    # do is a device property, not a document error.
    for audit in report.audits:
        if not audit.satisfied:
            assert audit.strictness.value == "may"

    print(f"\n[fig10] workstation playback: max skew "
          f"{report.max_skew_ms:.1f}ms, "
          f"{len(report.audits)} arcs audited, "
          f"{len(report.may_violations)} may drifts tolerated, "
          f"0 must violations")
