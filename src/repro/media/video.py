"""Synthetic video media: frame-sequence blocks and transformations.

Stands in for the paper's video capture hardware and its "sequenced
video FAX" example.  A payload is a deterministic sequence of small RGB
frames (each derived from :mod:`repro.media.image` with a per-frame
seed), so that frame-rate sub-sampling and slice extraction — the
constraint-filter examples ("full-frame-rate video to sub-sampled rate
video") — operate on concrete data.

Frames stay deliberately tiny (default 32x24): the pipeline's point is
descriptor-driven manipulation, and the tests only need payloads whose
shape changes detectably under each transformation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor, Slice
from repro.core.errors import MediaError
from repro.core.timebase import MediaTime, TimeBase
from repro.kernel._np import require_numpy
from repro.media.image import synthesize_image

if TYPE_CHECKING:
    import numpy as np


def synthesize_frames(duration_ms: float, frame_rate: float, *,
                      width: int = 32, height: int = 24, seed: int = 0
                      ) -> np.ndarray:
    """Deterministic frames as a (count, height, width, 3) uint8 array."""
    if duration_ms <= 0:
        raise MediaError(f"video duration must be positive, "
                         f"got {duration_ms}ms")
    if frame_rate <= 0:
        raise MediaError(f"frame rate must be positive, got {frame_rate}")
    count = max(1, int(round(duration_ms / 1000.0 * frame_rate)))
    np = require_numpy("video synthesis")
    frames = np.empty((count, height, width, 3), dtype=np.uint8)
    for index in range(count):
        base = synthesize_image(width, height, seed=seed + index)
        # A moving bright bar makes consecutive frames distinct, so
        # sub-sampling tests can verify which frames survived.
        bar = (index * 3) % width
        base[:, bar:bar + 2] = 255
        frames[index] = base
    return frames


def make_video_block(block_id: str, duration_ms: float, *,
                     frame_rate: float = 25.0, width: int = 32,
                     height: int = 24, seed: int = 0,
                     keywords: tuple[str, ...] = ()
                     ) -> tuple[DataBlock, DataDescriptor]:
    """Create a video block with its descriptor (payload generated lazily)."""
    def generate() -> np.ndarray:
        return synthesize_frames(duration_ms, frame_rate,
                                 width=width, height=height, seed=seed)

    block = DataBlock(block_id=block_id, medium=Medium.VIDEO,
                      payload=generate, generator=True)
    frame_count = int(round(duration_ms / 1000.0 * frame_rate))
    descriptor = DataDescriptor(
        descriptor_id=f"{block_id}.desc",
        medium=Medium.VIDEO,
        block_id=block_id,
        attributes={
            "format": "video/raw-rgb",
            "duration": MediaTime.ms(duration_ms),
            "frame-rate": frame_rate,
            "frames": frame_count,
            "resolution": (width, height),
            "color-depth": 24,
            "keywords": tuple(keywords),
            "resources": {
                "bandwidth-bps": int(frame_rate * width * height * 24)},
        },
    )
    return block, descriptor


def slice_frames(frames: np.ndarray, frame_rate: float, slice_: Slice,
                 timebase: TimeBase | None = None) -> np.ndarray:
    """Extract the ``slice`` attribute's frame range from a video."""
    timebase = timebase or TimeBase(frame_rate=frame_rate)
    intrinsic_ms = len(frames) / frame_rate * 1000.0
    start_ms, end_ms = slice_.bounds_ms(timebase, intrinsic_ms)
    start = int(round(start_ms / 1000.0 * frame_rate))
    end = int(round(end_ms / 1000.0 * frame_rate))
    if start >= end:
        raise MediaError(f"slice selects no frames: [{start}, {end})")
    return frames[start:end]


def subsample_frame_rate(frames: np.ndarray, frame_rate: float,
                         target_rate: float) -> tuple[np.ndarray, float]:
    """Keep every n-th frame to approximate ``target_rate``.

    Returns the surviving frames and the achieved rate; rates at or above
    the source are the identity.
    """
    if target_rate <= 0:
        raise MediaError(f"target rate must be positive, got {target_rate}")
    if target_rate >= frame_rate:
        return frames, frame_rate
    # Round the step *up* so the achieved rate never exceeds the target
    # (the honesty contract behind playable-with-filtering verdicts).
    step = math.ceil(frame_rate / target_rate - 1e-9)
    return frames[::step], frame_rate / step


def scale_frames(frames: np.ndarray, target_width: int,
                 target_height: int) -> np.ndarray:
    """Rescale every frame (nearest neighbour), a filter-stage action."""
    if target_width <= 0 or target_height <= 0:
        raise MediaError(f"target size must be positive, got "
                         f"{target_width}x{target_height}")
    count, height, width = frames.shape[:3]
    np = require_numpy("video frame scaling")
    row_index = (np.arange(target_height) * height // target_height)
    column_index = (np.arange(target_width) * width // target_width)
    return frames[:, row_index][:, :, column_index].copy()
