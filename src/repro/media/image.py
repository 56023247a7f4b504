"""Synthetic image media: graphic/illustration blocks and transformations.

Stands in for the paper's image capture and its figure-4 illustrations
(the stolen paintings, the insurance graph).  Payloads are deterministic
numpy RGB arrays; the transformations are exactly the constraint-filter
examples of paper section 2: "24-bit color to 8-bit color, color to
monochrome, high-resolution to low resolution".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import MediaError
from repro.core.timebase import MediaTime
from repro.core.values import Rect
from repro.kernel._np import require_numpy

if TYPE_CHECKING:
    import numpy as np


def synthesize_image(width: int, height: int, *, seed: int = 0
                     ) -> np.ndarray:
    """A deterministic uint8 RGB image of the given size.

    The pattern mixes smooth gradients with seeded structure so crops
    and scales are visually (and numerically) distinguishable.
    """
    if width <= 0 or height <= 0:
        raise MediaError(f"image size must be positive, "
                         f"got {width}x{height}")
    np = require_numpy("image synthesis")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width]
    red = (xs * 255.0 / max(1, width - 1)) if width > 1 else np.zeros_like(
        xs, dtype=float)
    green = (ys * 255.0 / max(1, height - 1)) if height > 1 \
        else np.zeros_like(ys, dtype=float)
    blue = 128.0 + 64.0 * np.sin(xs / 7.0) * np.cos(ys / 5.0)
    image = np.stack([red, green, blue], axis=-1)
    image += rng.integers(0, 16, size=image.shape)
    return np.clip(image, 0, 255).astype(np.uint8)


def make_image_block(block_id: str, width: int, height: int, *,
                     seed: int = 0, display_ms: float = 8000.0,
                     keywords: tuple[str, ...] = ()
                     ) -> tuple[DataBlock, DataDescriptor]:
    """Create an image block with its descriptor.

    ``display_ms`` is the default presentation duration of the still
    image (a "preference default provided with the atomic media block").
    """
    def generate() -> np.ndarray:
        return synthesize_image(width, height, seed=seed)

    block = DataBlock(block_id=block_id, medium=Medium.IMAGE,
                      payload=generate, generator=True)
    descriptor = DataDescriptor(
        descriptor_id=f"{block_id}.desc",
        medium=Medium.IMAGE,
        block_id=block_id,
        attributes={
            "format": "image/raw-rgb",
            "duration": MediaTime.ms(display_ms),
            "resolution": (width, height),
            "color-depth": 24,
            "keywords": tuple(keywords),
            "resources": {"memory-bytes": width * height * 3},
        },
    )
    return block, descriptor


def crop_image(image: np.ndarray, crop: Rect) -> np.ndarray:
    """Apply a figure-7 ``crop`` attribute to concrete pixels."""
    height, width = image.shape[:2]
    frame = Rect(0, 0, width, height)
    if not frame.contains(crop):
        raise MediaError(
            f"crop {crop} exceeds the image bounds {width}x{height}")
    return image[crop.y:crop.y + crop.height,
                 crop.x:crop.x + crop.width].copy()


def reduce_color_depth(image: np.ndarray, bits_per_channel: int
                       ) -> np.ndarray:
    """Quantize to ``bits_per_channel`` bits (24-bit -> 8-bit filtering).

    A depth of 8 bits per channel is the identity; lower depths quantize
    by dropping low bits and re-expanding so values stay in [0, 255].
    """
    if not 1 <= bits_per_channel <= 8:
        raise MediaError(
            f"bits per channel must be in [1, 8], got {bits_per_channel}")
    if bits_per_channel == 8:
        return image.copy()
    shift = 8 - bits_per_channel
    np = require_numpy("colour-depth reduction")
    quantized = (image >> shift).astype(np.uint16)
    maximum = (1 << bits_per_channel) - 1
    return ((quantized * 255) // maximum).astype(np.uint8)


def to_monochrome(image: np.ndarray) -> np.ndarray:
    """Colour to monochrome (ITU-R 601 luma), a filter-stage action."""
    if image.ndim == 2:
        return image.copy()
    np = require_numpy("monochrome conversion")
    weights = np.array([0.299, 0.587, 0.114])
    return (image[..., :3].astype(np.float64) @ weights).astype(np.uint8)


def scale_image(image: np.ndarray, target_width: int,
                target_height: int) -> np.ndarray:
    """Nearest-neighbour rescale (high-res -> low-res filtering)."""
    if target_width <= 0 or target_height <= 0:
        raise MediaError(f"target size must be positive, got "
                         f"{target_width}x{target_height}")
    height, width = image.shape[:2]
    np = require_numpy("image scaling")
    row_index = (np.arange(target_height) * height // target_height)
    column_index = (np.arange(target_width) * width // target_width)
    return image[row_index][:, column_index].copy()
