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

from repro._lazy import export_table

__all__ = export_table(__name__, {
    "._np": ("HAVE_NUMPY", "np"),
    ".backends": ("KERNELS", "KERNEL_AUTO", "KERNEL_ENV", "KERNEL_NUMPY",
                  "KERNEL_PYTHON", "KernelError", "NpArcResults", "NpRunPlan",
                  "NumpyKernel", "PYTHON_KERNEL", "PythonKernel",
                  "default_kernel", "resolve_kernel"),
})
