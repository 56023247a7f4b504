"""The one optional-NumPy import point for the whole package.

Every module that can use NumPy — the numeric kernel backend, payload
filtering, transport array encoding, the synthetic media substrate —
gets ``np`` from here instead of importing ``numpy`` itself.  That keeps
the dependency policy in one place: NumPy is an *accelerator*, never a
requirement.  When it is absent, ``np`` is None, ``HAVE_NUMPY`` is
False, the python kernel backend serves every numeric path, and only
the payload transformations that genuinely need array math refuse to
run (lazily, at the call that needs them).

NumPy is also never imported just because this module was: probing for
it is a ``find_spec`` lookup, and ``np`` is imported on first access
(a PEP 562 module ``__getattr__``) or by :func:`require_numpy`, then
bound here as a plain module attribute.
"""

from __future__ import annotations

import importlib.util
import sys

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def _load_numpy():
    """Import NumPy (once) and bind it as this module's ``np``."""
    global np
    if HAVE_NUMPY:
        import numpy as np
    else:
        np = None
    return np


def __getattr__(name: str):
    if name == "np":
        return _load_numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def numpy_loaded() -> bool:
    """Whether NumPy is already imported, by this package or anyone."""
    return sys.modules.get("numpy") is not None


def require_numpy(feature: str):
    """``np``, or a clear error naming the feature that needs it."""
    numpy = _load_numpy()
    if numpy is None:
        from repro.core.errors import MediaError
        raise MediaError(
            f"{feature} requires numpy, which is not installed; "
            f"attribute-level adaptation and the python kernel backend "
            f"work without it")
    return numpy


__all__ = ["HAVE_NUMPY", "np", "numpy_loaded", "require_numpy"]
