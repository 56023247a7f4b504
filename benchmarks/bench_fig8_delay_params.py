"""fig8 — synchronization delay parameters (min_delay / max_delay).

Figure 8 depicts the admissible window [tref + delta, tref + epsilon].
This bench sweeps the window width against device latency on the
fragment document and measures where must arcs start failing — the
crossover the tolerance mechanism exists for: wide windows survive slow
devices, hard windows do not.

Shape claims (DESIGN.md, "Per-experiment index"): violations decrease
monotonically with window width; a window wider than the worst device latency+jitter has
zero violations; the hard window (0,0) fails on every jittery device.
"""

from repro.core.channels import Medium
from repro.core.builder import DocumentBuilder
from repro.core.timebase import MediaTime
from repro.pipeline.player import Player
from repro.timing import schedule_document
from repro.transport.environments import SystemEnvironment

#: Window widths to sweep (epsilon, in ms; delta = -epsilon/5).
WINDOW_SWEEP = (0.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)

#: Device latency of the destination channel in the sweep.
DEVICE_LATENCY_MS = 30.0


def build_windowed_document(epsilon_ms: float):
    """par(video, caption) with a video->caption arc of given width."""
    builder = DocumentBuilder("sweep")
    builder.channel("video", "video")
    builder.channel("caption", "text")
    with builder.par("scene"):
        builder.imm("v", channel="video", medium="video", data="x",
                    duration=5000)
        caption = builder.imm("c", channel="caption", data="y",
                              duration=2000)
    document = builder.build()
    builder.arc(caption, source="../v", destination=".",
                min_delay=MediaTime.ms(-epsilon_ms / 5.0),
                max_delay=MediaTime.ms(epsilon_ms))
    return document


def _sweep():
    device = SystemEnvironment(
        name="sweep-device", jitter_ms=5.0,
        start_latency_ms={Medium.TEXT: DEVICE_LATENCY_MS,
                          Medium.VIDEO: 0.0})
    violations_by_width = {}
    for epsilon in WINDOW_SWEEP:
        document = build_windowed_document(epsilon)
        schedule = schedule_document(document.compile())
        report = Player(device, seed=11).play(schedule)
        violations_by_width[epsilon] = len(report.must_violations)
    return violations_by_width


def test_fig8_window_sweep(benchmark):
    violations = benchmark(_sweep)

    widths = list(violations)
    counts = [violations[w] for w in widths]

    # Hard synchronization fails on a 30ms-latency device.
    assert violations[0.0] == 1
    # A window comfortably wider than latency + jitter always holds.
    assert violations[250.0] == 0
    # Monotone: widening the window never creates violations.
    assert all(a >= b for a, b in zip(counts, counts[1:]))

    crossover = next(w for w in widths if violations[w] == 0)
    assert crossover >= DEVICE_LATENCY_MS

    print(f"\n[fig8] window width vs must violations "
          f"(device latency {DEVICE_LATENCY_MS}ms + 5ms jitter):")
    for width in widths:
        bar = "#" * violations[width]
        print(f"  epsilon={width:6.1f}ms  violations={violations[width]} "
              f"{bar}")
    print(f"  crossover at epsilon={crossover:g}ms (>= device latency "
          f"{DEVICE_LATENCY_MS:g}ms, as figure 8 predicts)")


def test_fig8_negative_min_delay_starts_early(benchmark):
    """delta < 0: 'the ability to start the target node sooner than the
    indicated reference time' — the ASAP scheduler uses it."""
    def build_and_schedule():
        builder = DocumentBuilder("early")
        builder.channel("v", "video")
        builder.channel("c", "text")
        with builder.par("scene"):
            builder.imm("a", channel="v", medium="video", data="x",
                        duration=3000)
            caption = builder.imm("b", channel="c", data="y",
                                  duration=1000)
        document = builder.build()
        builder.arc(caption, source="../a", destination=".",
                    src_anchor="end",
                    min_delay=MediaTime.ms(-500),
                    max_delay=MediaTime.ms(0))
        return schedule_document(document.compile())

    schedule = benchmark(build_and_schedule)
    caption = schedule.event_for_path("/scene/b")
    video = schedule.event_for_path("/scene/a")
    # The caption starts 500ms *before* the video ends.
    assert caption.begin_ms == video.end_ms - 500.0
