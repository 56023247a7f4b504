"""Synthetic audio media: sound-stream blocks and transformations.

Stands in for the paper's audio capture hardware (DESIGN.md substitution
table).  Payloads are deterministic numpy sample arrays (a mix of sine
partials and noise) so clip extraction and sample-rate reduction — the
operations the constraint-filter stage performs — act on real data, while
descriptors carry the rates and durations scheduling needs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor, Slice
from repro.core.errors import MediaError
from repro.core.timebase import MediaTime, TimeBase
from repro.kernel._np import require_numpy

if TYPE_CHECKING:
    import numpy as np


def synthesize_samples(duration_ms: float, sample_rate: float, *,
                       seed: int = 0, fundamental_hz: float = 220.0
                       ) -> np.ndarray:
    """Deterministic mono float32 samples of the given duration."""
    if duration_ms <= 0:
        raise MediaError(f"audio duration must be positive, "
                         f"got {duration_ms}ms")
    if sample_rate <= 0:
        raise MediaError(f"sample rate must be positive, got {sample_rate}")
    count = max(1, int(round(duration_ms / 1000.0 * sample_rate)))
    np = require_numpy("audio synthesis")
    t = np.arange(count, dtype=np.float64) / sample_rate
    rng = np.random.default_rng(seed)
    signal = np.zeros(count)
    for harmonic in (1.0, 2.0, 3.5):
        amplitude = 0.5 / harmonic
        signal += amplitude * np.sin(
            2 * np.pi * fundamental_hz * harmonic * t)
    signal += 0.05 * rng.standard_normal(count)
    peak = np.max(np.abs(signal))
    if peak > 0:
        signal = signal / peak
    return signal.astype(np.float32)


def make_audio_block(block_id: str, duration_ms: float, *,
                     sample_rate: float = 44100.0, seed: int = 0,
                     keywords: tuple[str, ...] = ()
                     ) -> tuple[DataBlock, DataDescriptor]:
    """Create an audio block with its descriptor.

    The payload is generated lazily (a generator block, covering the
    paper's "programs that produce information of a particular type")
    so attribute-only pipeline stages never pay for synthesis.
    """
    def generate() -> np.ndarray:
        return synthesize_samples(duration_ms, sample_rate, seed=seed)

    block = DataBlock(block_id=block_id, medium=Medium.AUDIO,
                      payload=generate, generator=True)
    sample_count = int(round(duration_ms / 1000.0 * sample_rate))
    descriptor = DataDescriptor(
        descriptor_id=f"{block_id}.desc",
        medium=Medium.AUDIO,
        block_id=block_id,
        attributes={
            "format": "audio/pcm-float32",
            "duration": MediaTime.ms(duration_ms),
            "sample-rate": sample_rate,
            "samples": sample_count,
            "channels": 1,
            "keywords": tuple(keywords),
            "resources": {"bandwidth-bps": int(sample_rate * 32)},
        },
    )
    return block, descriptor


def clip_samples(samples: np.ndarray, sample_rate: float,
                 clip: Slice, timebase: TimeBase | None = None
                 ) -> np.ndarray:
    """Extract the ``clip`` attribute's part of a sound fragment.

    Implements figure 7's clip semantics on concrete data: the clip's
    media times resolve through the time base, then map to sample
    indices.
    """
    timebase = timebase or TimeBase(sample_rate=sample_rate)
    intrinsic_ms = len(samples) / sample_rate * 1000.0
    start_ms, end_ms = clip.bounds_ms(timebase, intrinsic_ms)
    start = int(round(start_ms / 1000.0 * sample_rate))
    end = int(round(end_ms / 1000.0 * sample_rate))
    if start >= end:
        raise MediaError(f"clip selects no samples: [{start}, {end})")
    return samples[start:end]


def downsample(samples: np.ndarray, sample_rate: float,
               target_rate: float) -> tuple[np.ndarray, float]:
    """Reduce the sample rate (a constraint-filter action).

    Plain decimation with pre-averaging over each window — crude but
    deterministic, and the filter stage only needs a faithful size/rate
    transformation, not audiophile quality.
    """
    if target_rate <= 0:
        raise MediaError(f"target rate must be positive, got {target_rate}")
    if target_rate >= sample_rate:
        return samples, sample_rate
    # Round the decimation factor *up*: the achieved rate must never
    # exceed the target, or a playable-with-filtering verdict would be
    # dishonest (the filtered document would still over-demand).
    factor = math.ceil(sample_rate / target_rate - 1e-9)
    usable = (len(samples) // factor) * factor
    if usable == 0:
        return samples[:1], sample_rate / factor
    windows = samples[:usable].reshape(-1, factor)
    np = require_numpy("audio downsampling")
    return windows.mean(axis=1).astype(np.float32), sample_rate / factor


def merge_channels(samples: np.ndarray,
                   target_channels: int) -> np.ndarray:
    """Merge a multi-channel layout down to ``target_channels`` lanes.

    A constraint-filter action (stereo material on a mono device).
    Channels are averaged in contiguous groups; the mono result is a
    1-D array, matching the synthesizer's native layout.
    """
    if target_channels <= 0:
        raise MediaError(f"target channel count must be positive, "
                         f"got {target_channels}")
    if samples.ndim == 1 or samples.shape[1] <= target_channels:
        return samples
    channels = samples.shape[1]
    if target_channels == 1:
        return samples.mean(axis=1).astype(samples.dtype)
    np = require_numpy("audio channel merging")
    bounds = np.linspace(0, channels, target_channels + 1).astype(int)
    lanes = [samples[:, start:stop].mean(axis=1)
             for start, stop in zip(bounds, bounds[1:])]
    return np.stack(lanes, axis=1).astype(samples.dtype)


def rms_level(samples: np.ndarray) -> float:
    """Root-mean-square level, used by tests to compare transformations."""
    if len(samples) == 0:
        return 0.0
    np = require_numpy("audio level measurement")
    return float(np.sqrt(np.mean(np.square(samples.astype(np.float64)))))
