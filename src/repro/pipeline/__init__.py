"""The CWI/Multimedia Pipeline (paper section 2, figure 1).

Five stages, one module each:

1. :mod:`repro.pipeline.capture` — media block capture tools;
2. :mod:`repro.pipeline.mapping` — the document structure mapping tool;
3. :mod:`repro.pipeline.presentation` — the presentation mapping tool;
4. :mod:`repro.pipeline.filters` — constraint filtering tools;
5. :mod:`repro.pipeline.viewer` / :mod:`repro.pipeline.player` —
   document viewing and reading tools.

Stages 1–2 are target-system independent, 3 bridges, 4–5 are
target-system dependent — the figure-1 split.  :func:`run_pipeline`
drives a document through all five stages and returns every
intermediate artifact, which is what the fig-1 bench measures.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".adaptation": ("AdaptationProgram", "adapt_document",
                    "adapted_navigation_for", "adapted_program_for",
                    "compile_adaptation"),
    ".capture": ("CaptureSession", "Captured"),
    ".filters": ("ConstraintFilter", "FilterAction", "FilterKind",
                 "FilterPlan", "adapt_attributes", "apply_action"),
    ".mapping": ("StructureMapper",),
    ".navigation": ("Jump", "Link", "NavigationSession", "collect_links",
                    "segments_cover"),
    ".navprogram": ("Choice", "CompiledNavigationSession", "NavigationProgram",
                    "compile_navigation", "navigation_for", "random_trace"),
    ".player": ("ArcAudit", "PlaybackReport", "PlayedEvent", "Player"),
    ".presentation": ("PresentationMap", "PresentationMapper", "Region",
                      "SpeakerAssignment", "VIRTUAL_HEIGHT", "VIRTUAL_WIDTH"),
    ".program": ("BatchPlayer", "CompactReport", "PlaybackProgram",
                 "ProgramCache", "SweepCell", "compile_program"),
    ".run": ("PipelineRun", "run_pipeline"),
    ".viewer": ("render_arc_table", "render_embedded", "render_screen",
                "render_summary", "render_sweep", "render_timeline",
                "render_tree"),
})
