"""Synthetic media substrate: text, audio, image and video blocks.

Replaces the paper's capture hardware per the DESIGN.md substitution
table.  Every generator is deterministic in its seed, produces a
(:class:`~repro.core.descriptors.DataBlock`,
:class:`~repro.core.descriptors.DataDescriptor`) pair, and heavy payloads
are produced lazily so attribute-only pipeline stages never synthesize
pixels or samples.
"""

from repro.media.audio import (clip_samples, downsample, make_audio_block,
                               merge_channels, rms_level,
                               synthesize_samples)
from repro.media.image import (crop_image, make_image_block,
                               reduce_color_depth, scale_image,
                               synthesize_image, to_monochrome)
from repro.media.text import (generate_paragraph, generate_sentence,
                              make_text_block, reading_duration_ms,
                              translate_stub)
from repro.media.video import (make_video_block, scale_frames, slice_frames,
                               subsample_frame_rate, synthesize_frames)

__all__ = [
    "clip_samples", "crop_image", "downsample", "generate_paragraph",
    "generate_sentence", "make_audio_block",
    "make_image_block", "make_text_block", "make_video_block",
    "merge_channels",
    "reading_duration_ms", "reduce_color_depth", "rms_level",
    "scale_frames", "scale_image", "slice_frames", "subsample_frame_rate",
    "synthesize_frames", "synthesize_image", "synthesize_samples",
    "to_monochrome", "translate_stub",
]
