"""Synthetic media substrate: text, audio, image and video blocks.

Replaces the paper's capture hardware per the DESIGN.md substitution
table.  Every generator is deterministic in its seed, produces a
(:class:`~repro.core.descriptors.DataBlock`,
:class:`~repro.core.descriptors.DataDescriptor`) pair, and heavy payloads
are produced lazily so attribute-only pipeline stages never synthesize
pixels or samples.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".audio": ("clip_samples", "downsample", "make_audio_block",
               "merge_channels", "rms_level", "synthesize_samples"),
    ".image": ("crop_image", "make_image_block", "reduce_color_depth",
               "scale_image", "synthesize_image", "to_monochrome"),
    ".text": ("generate_paragraph", "generate_sentence", "make_text_block",
              "reading_duration_ms", "translate_stub"),
    ".video": ("make_video_block", "scale_frames", "slice_frames",
               "subsample_frame_rate", "synthesize_frames"),
})
