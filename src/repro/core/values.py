"""Attribute value types (paper section 5.2).

The paper names four example attribute value definitions:

* ``ID`` — "a character value (without embedded spaces)",
* ``NUMBER`` — "a numeric value",
* ``STRING`` — "a character-string (in quotes, possibly with embedded
  spaces)",
* ``value*`` — "a (set of) pointer(s) to other attributes".

This module implements those four plus the composite values the standard
attributes of figure 7 require in practice: nested attribute groups (for
the style and channel dictionaries), media-time values (for offsets,
slices and clips), and rectangles (for crops).  Every kind knows how to
validate a raw Python object, so attribute assignment fails early with a
precise message rather than corrupting a document that will only be
rejected when transported.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ValueError_
from repro.core.timebase import MediaTime

#: Pattern for ID values: visible characters, no embedded whitespace.
_ID_PATTERN = re.compile(r"^\S+$")

#: Pattern for node and channel names: a conservative identifier set so
#: that names remain usable inside relative path expressions (which use
#: ``/`` and ``..`` as separators, see paths.py).
NAME_PATTERN = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")


class ValueKind(enum.Enum):
    """The value categories an attribute may declare."""

    ID = "id"
    NUMBER = "number"
    STRING = "string"
    POINTERS = "pointers"      # the paper's ``value*`` field
    MEDIA_TIME = "media-time"
    RECT = "rect"
    GROUP = "group"            # nested name -> value mapping
    FLAG = "flag"
    ANY = "any"


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle, used by the ``crop`` attribute.

    Coordinates are pixels in the source image's own coordinate system;
    the presentation mapping tool later translates them into virtual
    real-estate coordinates.
    """

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError_(
                f"Rect must have positive size, got {self.width}x{self.height}")
        if self.x < 0 or self.y < 0:
            raise ValueError_(
                f"Rect origin must be non-negative, got ({self.x}, {self.y})")

    @property
    def area(self) -> int:
        """Pixel area of the rectangle."""
        return self.width * self.height

    def contains(self, other: "Rect") -> bool:
        """Return True when ``other`` lies fully inside this rectangle."""
        return (self.x <= other.x
                and self.y <= other.y
                and other.x + other.width <= self.x + self.width
                and other.y + other.height <= self.y + self.height)

    def intersect(self, other: "Rect") -> "Rect | None":
        """Return the overlap of two rectangles, or None when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x + self.width, other.x + other.width)
        y2 = min(self.y + self.height, other.y + other.height)
        if x2 <= x1 or y2 <= y1:
            return None
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def scaled(self, factor: float) -> "Rect":
        """Return the rectangle scaled about the origin by ``factor``."""
        if factor <= 0:
            raise ValueError_("scale factor must be positive")
        return Rect(int(self.x * factor), int(self.y * factor),
                    max(1, int(self.width * factor)),
                    max(1, int(self.height * factor)))


def validate_id(value: Any) -> str:
    """Validate an ID value: a non-empty string without whitespace."""
    if not isinstance(value, str) or not _ID_PATTERN.match(value):
        raise ValueError_(
            f"ID value must be a non-empty string without embedded "
            f"spaces, got {value!r}")
    return value


def validate_name(value: Any) -> str:
    """Validate a node/channel/style name.

    Names are stricter than general IDs because they participate in the
    relative path syntax of synchronization arcs (paper section 5.3.2).
    """
    if not isinstance(value, str) or not NAME_PATTERN.match(value):
        raise ValueError_(
            f"name must match {NAME_PATTERN.pattern}, got {value!r}")
    return value


def validate_number(value: Any) -> float | int:
    """Validate a NUMBER value: a finite int or float (bool excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError_(f"NUMBER value must be int or float, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError_(f"NUMBER value must be finite, got {value!r}")
    return value


def validate_string(value: Any) -> str:
    """Validate a STRING value: any str, embedded spaces allowed."""
    if not isinstance(value, str):
        raise ValueError_(f"STRING value must be str, got {value!r}")
    return value


def validate_pointers(value: Any) -> tuple[str, ...]:
    """Validate a ``value*`` field: one or more attribute-name pointers."""
    if isinstance(value, str):
        value = (value,)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError_(
            f"pointer set must be a non-empty sequence of names, "
            f"got {value!r}")
    return tuple(validate_id(item) for item in value)


def validate_media_time(value: Any) -> MediaTime:
    """Validate a media-time value, accepting bare numbers as ms."""
    if isinstance(value, MediaTime):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return MediaTime.ms(float(value))
    raise ValueError_(f"expected MediaTime or number (ms), got {value!r}")


def validate_rect(value: Any) -> Rect:
    """Validate a rectangle value, accepting 4-sequences."""
    if isinstance(value, Rect):
        return value
    if isinstance(value, (list, tuple)) and len(value) == 4:
        x, y, w, h = value
        return Rect(int(x), int(y), int(w), int(h))
    raise ValueError_(f"expected Rect or (x, y, w, h), got {value!r}")


def validate_group(value: Any) -> dict[str, Any]:
    """Validate a nested attribute group (name -> value mapping)."""
    if not isinstance(value, dict):
        raise ValueError_(f"group value must be a dict, got {value!r}")
    for key in value:
        validate_id(key)
    return dict(value)


def validate_flag(value: Any) -> bool:
    """Validate a boolean flag value."""
    if not isinstance(value, bool):
        raise ValueError_(f"flag value must be bool, got {value!r}")
    return value


_VALIDATORS = {
    ValueKind.ID: validate_id,
    ValueKind.NUMBER: validate_number,
    ValueKind.STRING: validate_string,
    ValueKind.POINTERS: validate_pointers,
    ValueKind.MEDIA_TIME: validate_media_time,
    ValueKind.RECT: validate_rect,
    ValueKind.GROUP: validate_group,
    ValueKind.FLAG: validate_flag,
    ValueKind.ANY: lambda value: value,
}


def validate_value(kind: ValueKind, value: Any) -> Any:
    """Validate ``value`` against ``kind``, returning the normalized form."""
    return _VALIDATORS[kind](value)
