"""Drive a finished document through pipeline stages 3–5 in one call."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.document import CmifDocument
from repro.pipeline.filters import ConstraintFilter, FilterPlan
from repro.pipeline.player import PlaybackReport, Player
from repro.pipeline.presentation import PresentationMap, PresentationMapper
from repro.timing.schedule import Schedule, schedule_document
from repro.transport.environments import SystemEnvironment, WORKSTATION


@dataclass
class PipelineRun:
    """Every artifact of one end-to-end pipeline execution."""

    document: CmifDocument
    presentation: PresentationMap
    filter_plan: FilterPlan
    schedule: Schedule
    playback: PlaybackReport


def run_pipeline(document: CmifDocument,
                 environment: SystemEnvironment = WORKSTATION, *,
                 seed: int = 0) -> PipelineRun:
    """Drive a finished document through stages 3–5.

    (Stages 1–2 produce the document itself; see
    :class:`~repro.pipeline.capture.CaptureSession` and
    :class:`~repro.pipeline.mapping.StructureMapper`.)
    """
    compiled = document.compile()
    presentation = PresentationMapper(
        speaker_count=max(1, environment.audio_channels)).map_document(
        document)
    filter_plan = ConstraintFilter(environment).plan(compiled)
    schedule = schedule_document(compiled)
    playback = Player(environment, seed=seed).play(schedule)
    return PipelineRun(document=document, presentation=presentation,
                       filter_plan=filter_plan, schedule=schedule,
                       playback=playback)
