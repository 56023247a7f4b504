"""fig1 — the CWI/Multimedia Pipeline, end to end (paper section 2).

Regenerates figure 1 as a live run: all five stages execute over the
evening news document and each stage's input/output artifact is checked.
The benchmark times one complete pipeline pass (stages 3-5; stages 1-2
author the fixture once).

Shape claims (DESIGN.md, "Per-experiment index"):
* the five stages exist and compose: capture -> structure map ->
  presentation map -> filter plan -> schedule + playback;
* stages 1-3 are target-independent (identical artifacts for every
  environment), stages 4-5 are target-dependent (different plans and
  skews per environment).
"""

from repro.pipeline import run_pipeline
from repro.transport import PERSONAL_SYSTEM, WORKSTATION


def test_fig1_pipeline_end_to_end(benchmark, news_corpus):
    document = news_corpus.document

    run = benchmark(run_pipeline, document, WORKSTATION)

    # Stage inventory: every stage produced its artifact.
    assert len(run.presentation.regions) == 4
    assert len(run.presentation.speakers) == 1
    assert run.filter_plan.environment == "workstation"
    assert run.schedule.total_duration_ms > 0
    assert len(run.playback.played) == len(run.schedule.events)

    # Target-independent vs target-dependent split (figure 1's dashed
    # line): the presentation map is identical across environments,
    # the filter plan and playback are not.
    other = run_pipeline(document, PERSONAL_SYSTEM)
    assert {name: region.rect for name, region
            in other.presentation.regions.items()} == \
           {name: region.rect for name, region
            in run.presentation.regions.items()}
    assert other.filter_plan.actions != run.filter_plan.actions
    assert other.playback.max_skew_ms != run.playback.max_skew_ms

    print("\n[fig1] pipeline stages over the evening news:")
    print(f"  1. capture:        {len(news_corpus.store)} media blocks "
          f"in the store")
    stats = document.stats()
    print(f"  2. structure map:  {stats.total_nodes} nodes, "
          f"{stats.arc_count} explicit arcs")
    print(f"  3. presentation:   {len(run.presentation.regions)} regions "
          f"+ {len(run.presentation.speakers)} speakers")
    print(f"  4. filter plan:    {len(run.filter_plan.actions)} actions "
          f"(workstation) vs {len(other.filter_plan.actions)} "
          f"(personal-system)")
    print(f"  5. playback:       {run.playback.max_skew_ms:.1f}ms max "
          f"skew (workstation) vs {other.playback.max_skew_ms:.1f}ms "
          f"(personal-system)")
