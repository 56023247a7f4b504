"""The numeric kernel axis: one interface, two backends.

Every hot numeric path — the :class:`~repro.pipeline.program.BatchPlayer`
inner loop, the :func:`~repro.timing.graph.solve_graph` relaxation
sweeps, the planner's inverted-index set operations — runs against a
*kernel*: either the pure-Python reference backend or the NumPy
vectorized backend, selected by the ``kernel=`` axis:

* ``"auto"`` (the default) picks NumPy when it is importable, else the
  Python backend — so the package has **no hard NumPy dependency**;
* ``"numpy"`` / ``"python"`` force a backend (tests pin the two
  bit-identical against each other; CI runs the tier-1 suite once
  under each);
* the ``REPRO_KERNEL`` environment variable overrides ``"auto"``
  without touching call sites, which is how CI forces backends.

The backends are bit-identical by construction and by test: a kernel
choice changes cost, never one bit of output — which is why caches
(schedules, programs, plans) never key on the kernel.
"""

from __future__ import annotations

import os

from repro.core.errors import CmifError
from repro.kernel._np import HAVE_NUMPY, np
from repro.kernel.backends import (NUMPY_KERNEL, PYTHON_KERNEL,
                                   NpArcResults, NpRunPlan, NumpyKernel,
                                   PythonKernel)

KERNEL_AUTO = "auto"
KERNEL_NUMPY = "numpy"
KERNEL_PYTHON = "python"

#: The kernel axis, mirrored by the CLI ``--kernel`` flag.
KERNELS = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: Environment override for the ``auto`` choice (CI forces backends
#: with it); ignored when a call site names a kernel explicitly.
KERNEL_ENV = "REPRO_KERNEL"


class KernelError(CmifError):
    """An unknown or unavailable kernel backend was requested."""


def resolve_kernel(kernel=None):
    """A kernel backend instance for an axis value.

    ``kernel`` may be None / ``"auto"`` (NumPy when available, after
    consulting :data:`KERNEL_ENV`), a backend name, or an already
    resolved kernel instance (returned as-is, so plumbing can resolve
    once and pass the instance down).
    """
    if isinstance(kernel, (PythonKernel, NumpyKernel)):
        return kernel
    name = KERNEL_AUTO if kernel is None else kernel
    if name == KERNEL_AUTO:
        name = os.environ.get(KERNEL_ENV, KERNEL_AUTO)
        if name == KERNEL_AUTO:
            name = KERNEL_NUMPY if HAVE_NUMPY else KERNEL_PYTHON
    if name == KERNEL_PYTHON:
        return PYTHON_KERNEL
    if name == KERNEL_NUMPY:
        if NUMPY_KERNEL is None:
            raise KernelError(
                "kernel 'numpy' requested but numpy is not installed; "
                "use kernel='python' (or 'auto')")
        return NUMPY_KERNEL
    raise KernelError(f"unknown kernel {name!r}; expected one of "
                      f"{KERNELS}")


def default_kernel():
    """The kernel ``auto`` resolves to right now (env override included)."""
    return resolve_kernel(KERNEL_AUTO)


__all__ = ["HAVE_NUMPY", "KERNELS", "KERNEL_AUTO", "KERNEL_ENV",
           "KERNEL_NUMPY", "KERNEL_PYTHON", "KernelError", "NpArcResults",
           "NpRunPlan", "NumpyKernel", "PythonKernel", "default_kernel",
           "np", "resolve_kernel"]
