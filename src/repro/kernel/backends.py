"""The two numeric kernel backends behind the ``kernel=`` axis.

:class:`PythonKernel` *is* the retained reference: its playback
operations delegate to the interpretive array loops on
:class:`~repro.pipeline.program.PlaybackProgram`, exactly as every
release before the kernel axis ran them.  :class:`NumpyKernel` replaces
each of those loops with whole-array operations that are pinned
**bit-identical** to the reference — which takes care, because floating
point addition does not reassociate:

* elementwise transforms (rate scale, freeze shift, dispatch clamp,
  latency add, jitter multiply-add, start max) map 1:1 onto vector ops
  and are exact by construction;
* jitter draws still come from the Python ``Random`` in canonical event
  order — only the arithmetic around them is vectorized — so the draw
  sequence matches the reference for any seed;
* the channel-contention chain (``stop_k = max(pre_k, stop_{k-1}) +
  d_k``) is a serial recurrence that a prefix operation would
  reassociate.  The kernel classifies each lane **once per (plan,
  jitter) pair** by a worst-case interval analysis: a lane where no
  event's earliest possible start (zero jitter draw) precedes its
  predecessor's latest possible stop (full-jitter serial chain) can
  never contend, so its vectorized candidates are provably exact for
  every draw; only the remaining lanes replay the serial recurrence,
  over plain Python lists.  With zero jitter the bounds are tight, the
  classification is exact, and the whole run is a pure function of the
  plan — so quiet replays share one cached result (and one cached
  audit).

The audit evaluates all leaf-to-leaf arcs (the overwhelming majority)
in one vector pass; arcs with container endpoints keep the envelope
min/max loop, which is order-insensitive and therefore exact.

Randomized equivalence across the whole surface is pinned by
``tests/test_kernels.py``; the speedups are gated by
``benchmarks/bench_kernels.py`` against ``baselines/kernels.json``.
"""

from __future__ import annotations

import os
import random

from repro.core.errors import CmifError
from repro.core.syncarc import Strictness
from repro.kernel import _np

KERNEL_AUTO = "auto"
KERNEL_NUMPY = "numpy"
KERNEL_PYTHON = "python"

#: The kernel axis, mirrored by the CLI ``--kernel`` flag.
KERNELS = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: Environment override for the ``auto`` choice (CI forces backends
#: with it); ignored when a call site names a kernel explicitly.
KERNEL_ENV = "REPRO_KERNEL"

#: NumPy, bound once when the numpy backend is first built (see
#: :class:`NumpyKernel`), so the vector loops below read it as a plain
#: module global without importing NumPy for python-kernel runs.
np = None


class KernelError(CmifError):
    """An unknown or unavailable kernel backend was requested."""


class PythonKernel:
    """The pure-Python backend — the pinned interpretive reference."""

    name = "python"
    np = None

    # -- array plumbing ------------------------------------------------

    def time_array(self, values):
        """Lists are already this backend's array type."""
        return values if isinstance(values, list) else list(values)

    def tolist(self, array):
        return array if isinstance(array, list) else list(array)

    def scale(self, array, rate):
        return [value * rate for value in array]

    def freeze(self, tb, te, freeze_at_ms, freeze_duration_ms):
        """Freeze-frame shift against the (already scaled) clock."""
        frozen_begin = []
        frozen_end = []
        for begin, end in zip(tb, te):
            if begin >= freeze_at_ms:
                begin += freeze_duration_ms
                end += freeze_duration_ms
            elif end > freeze_at_ms:
                end += freeze_duration_ms
            frozen_begin.append(begin)
            frozen_end.append(end)
        return frozen_begin, frozen_end

    # -- playback ops (delegate to the interpretive loops) -------------

    def build_plan(self, program, tb, te, seek_to_ms, latencies,
                   prefetch_lead_ms):
        return program.plan(tb, te, seek_to_ms, latencies,
                            prefetch_lead_ms)

    def run(self, program, plan, jitter_ms, rng: random.Random):
        return program.run(plan, jitter_ms, rng)

    def audit(self, program, actual_begin, actual_end, played,
              plan=None):
        return program.audit(actual_begin, actual_end, played)


class _NpPlaybackView:
    """Per-program compiled state for the numpy backend (built once).

    Shared across every environment-specialized view of a program —
    specialization never changes event timing or the arc table.
    """

    __slots__ = ("chan", "n_channels", "must_mask", "may_mask",
                 "single_pos", "s_idx", "s_beg", "d_idx", "d_beg",
                 "s_off", "s_delta", "s_eps", "s_has_eps", "multis")

    def __init__(self, program) -> None:
        self.chan = np.asarray(program.channel_index, dtype=np.int64)
        self.n_channels = len(program.channels)
        arcs = program.audit_arcs
        self.must_mask = np.fromiter(
            (arc.strictness is Strictness.MUST for arc in arcs),
            dtype=bool, count=len(arcs))
        self.may_mask = np.fromiter(
            (arc.strictness is Strictness.MAY for arc in arcs),
            dtype=bool, count=len(arcs))
        single_pos = []
        s_idx, s_beg, d_idx, d_beg = [], [], [], []
        s_off, s_delta, s_eps, s_has_eps = [], [], [], []
        self.multis = []
        for position, arc in enumerate(arcs):
            if len(arc.source_events) == 1 and len(arc.dest_events) == 1:
                single_pos.append(position)
                s_idx.append(arc.source_events[0])
                s_beg.append(arc.src_begin)
                d_idx.append(arc.dest_events[0])
                d_beg.append(arc.dst_begin)
                s_off.append(arc.offset_ms)
                s_delta.append(arc.delta_ms)
                # 0.0 placeholder where the arc has no upper bound;
                # ``s_has_eps`` gates every read of ``s_eps``.
                s_eps.append(0.0 if arc.epsilon_ms is None
                             else arc.epsilon_ms)
                s_has_eps.append(arc.epsilon_ms is not None)
            else:
                # Container endpoints stay Python lists: the envelope
                # min/max over a handful of leaves is faster as plain
                # comparisons than as tiny-array reductions.
                self.multis.append((
                    position,
                    list(arc.source_events), arc.src_begin,
                    list(arc.dest_events), arc.dst_begin,
                    arc.offset_ms, arc.delta_ms, arc.epsilon_ms))
        self.single_pos = np.asarray(single_pos, dtype=np.int64)
        self.s_idx = np.asarray(s_idx, dtype=np.int64)
        self.s_beg = np.asarray(s_beg, dtype=bool)
        self.d_idx = np.asarray(d_idx, dtype=np.int64)
        self.d_beg = np.asarray(d_beg, dtype=bool)
        self.s_off = np.asarray(s_off, dtype=np.float64)
        self.s_delta = np.asarray(s_delta, dtype=np.float64)
        self.s_eps = np.asarray(s_eps, dtype=np.float64)
        self.s_has_eps = np.asarray(s_has_eps, dtype=bool)


class NpRunPlan:
    """One configuration's precomputed run state, numpy form.

    Mirrors :class:`~repro.pipeline.program.RunPlan` plus the lane
    structure the contention analysis needs: ``groups`` holds each
    channel's active-local event positions in canonical order.
    """

    __slots__ = ("n", "tb", "te", "active", "played", "tb_a",
                 "ready_base", "duration", "groups", "members_py",
                 "tb_a_py", "ready_base_py", "duration_py", "quiet",
                 "quiet_audit", "_contention", "_reference")

    def __init__(self, n, tb, te, active, played, tb_a, ready_base,
                 duration, groups) -> None:
        self.n = n
        self.tb = tb
        self.te = te
        self.active = active
        self.played = played
        self.tb_a = tb_a
        self.ready_base = ready_base
        self.duration = duration
        self.groups = groups
        # Python-list mirrors for the serial contention replay (the
        # one part of the run that is a genuine recurrence); built on
        # first use — quiet plans that never contend never pay them.
        self.members_py = None
        self.tb_a_py = None
        self.ready_base_py = None
        self.duration_py = None
        #: Cached result (and audit) of the no-jitter run: with zero
        #: jitter the run is a pure function of the plan, so replays
        #: under a quiet environment share one result.
        self.quiet = None
        self.quiet_audit = None
        #: jitter_ms -> (serial_members, serial_index) lane analysis.
        self._contention = {}
        #: Lazy interpretive RunPlan mirror, for runs the reference
        #: loop serves better than vector setup (tiny or mostly-
        #: contended jittered plans).
        self._reference = None

    def _mirrors(self) -> None:
        if self.members_py is None:
            self.members_py = [group.tolist() for group in self.groups]
            self.tb_a_py = self.tb_a.tolist()
            self.ready_base_py = self.ready_base.tolist()
            self.duration_py = self.duration.tolist()

    def reference(self):
        """This plan as an interpretive ``RunPlan`` (same floats)."""
        if self._reference is None:
            from repro.pipeline.program import RunPlan
            self._mirrors()
            active = self.active.tolist()
            ready_base = [0.0] * self.n
            duration = [0.0] * self.n
            for local, canonical in enumerate(active):
                ready_base[canonical] = self.ready_base_py[local]
                duration[canonical] = self.duration_py[local]
            self._reference = RunPlan(
                tb=self.tb.tolist(), te=self.te.tolist(), active=active,
                played=self.played.tolist(), ready_base=ready_base,
                duration=duration)
        return self._reference

    def contention(self, jitter_ms: float):
        """Which lanes can *ever* contend under ``jitter_ms``.

        A lane is contention-free when every event's earliest possible
        start — ``max(ready_base, tb)``, the zero draw — is no earlier
        than its predecessor's latest possible stop, taken from the
        serial chain run with the full jitter bound.  Both bounds are
        monotone in the draw, so a lane that passes can never trigger
        the ``free > start`` clamp for any draw sequence and its
        vectorized candidates are exact; with ``jitter_ms == 0`` the
        bounds coincide and the classification is exact, not merely
        conservative.  Returns ``(serial_members, serial_index)``: the
        per-lane position lists that must replay the serial recurrence,
        and their flattened positions for the scatter back.
        """
        entry = self._contention.get(jitter_ms)
        if entry is None:
            self._mirrors()
            ready_base = self.ready_base_py
            tb = self.tb_a_py
            duration = self.duration_py
            serial_members = []
            for members in self.members_py:
                free = 0.0
                for pos in members:
                    earliest = ready_base[pos]
                    begin = tb[pos]
                    if begin > earliest:
                        earliest = begin
                    if free > earliest:
                        serial_members.append(members)
                        break
                    # Latest stop chain; free <= earliest <= latest
                    # here, so the chain clamp is already satisfied.
                    latest = ready_base[pos] + jitter_ms
                    if begin > latest:
                        latest = begin
                    free = latest + duration[pos]
            if serial_members:
                index = np.asarray(
                    [pos for members in serial_members
                     for pos in members], dtype=np.int64)
            else:
                index = None
            entry = (serial_members, index)
            self._contention[jitter_ms] = entry
        return entry


class NpArcResults:
    """Arc audit results as parallel arrays, one slot per audit arc.

    ``rows()`` materializes the reference's per-arc ``None | (actual,
    violation, low, high)`` tuples lazily, so array-side consumers
    (violation counts) never build them.
    """

    __slots__ = ("view", "valid", "actual", "violation", "low", "high",
                 "has_high", "_rows")

    def __init__(self, view, valid, actual, violation, low, high,
                 has_high) -> None:
        self.view = view
        self.valid = valid
        self.actual = actual
        self.violation = violation
        self.low = low
        self.high = high
        self.has_high = has_high
        self._rows = None

    def count_violations(self, strictness: Strictness) -> int:
        mask = (self.view.must_mask if strictness is Strictness.MUST
                else self.view.may_mask)
        return int(np.count_nonzero(
            self.valid & mask & (self.violation != 0.0)))

    def rows(self):
        if self._rows is None:
            valid = self.valid.tolist()
            actual = self.actual.tolist()
            violation = self.violation.tolist()
            low = self.low.tolist()
            high = self.high.tolist()
            has_high = self.has_high.tolist()
            self._rows = [
                (actual[i], violation[i], low[i],
                 high[i] if has_high[i] else None) if valid[i] else None
                for i in range(len(valid))]
        return self._rows

    def __iter__(self):
        return iter(self.rows())

    def __len__(self):
        return len(self.valid)


class NumpyKernel:
    """The vectorized backend; every op bit-identical to the reference."""

    name = "numpy"

    def __init__(self) -> None:
        global np
        np = self.np = _np.require_numpy("the numpy kernel")

    def __reduce__(self):
        # Unpickle to the receiving process's own backend instance.
        return resolve_kernel, (KERNEL_NUMPY,)

    # -- array plumbing ------------------------------------------------

    def time_array(self, values):
        return np.asarray(values, dtype=np.float64)

    def tolist(self, array):
        return array if isinstance(array, list) else array.tolist()

    def scale(self, array, rate):
        return array * rate

    def freeze(self, tb, te, freeze_at_ms, freeze_duration_ms):
        begin_shifted = tb >= freeze_at_ms
        frozen_begin = np.where(begin_shifted, tb + freeze_duration_ms, tb)
        frozen_end = np.where(begin_shifted | (te > freeze_at_ms),
                              te + freeze_duration_ms, te)
        return frozen_begin, frozen_end

    # -- per-program compiled view --------------------------------------

    def _view(self, program) -> _NpPlaybackView:
        views = program._kernel_views
        view = views.get(self.name)
        if view is None:
            view = _NpPlaybackView(program)
            views[self.name] = view
        return view

    # -- playback ops ----------------------------------------------------

    def build_plan(self, program, tb, te, seek_to_ms, latencies,
                   prefetch_lead_ms) -> NpRunPlan:
        view = self._view(program)
        played = te > seek_to_ms
        active = np.nonzero(played)[0]
        tb_a = tb[active]
        dispatch = tb_a - prefetch_lead_ms
        if seek_to_ms > 0:
            dispatch = np.maximum(dispatch, seek_to_ms)
        ready_base = dispatch + latencies[active]
        duration = te[active] - tb_a
        lanes = view.chan[active]
        if lanes.size:
            order = np.argsort(lanes, kind="stable")
            lanes_sorted = lanes[order]
            starts = np.nonzero(lanes_sorted[1:] !=
                                lanes_sorted[:-1])[0] + 1
            bounds = np.concatenate(
                ([0], starts, [lanes_sorted.size]))
            groups = [order[a:b]
                      for a, b in zip(bounds[:-1], bounds[1:])]
        else:
            groups = []
        return NpRunPlan(n=program.n_events, tb=tb, te=te, active=active,
                         played=played, tb_a=tb_a, ready_base=ready_base,
                         duration=duration, groups=groups)

    def run(self, program, plan: NpRunPlan, jitter_ms: float,
            rng: random.Random):
        count = plan.active.size
        jittered = bool(jitter_ms > 0 and count)
        if not jittered and plan.quiet is not None:
            # Zero jitter makes the run a pure function of the plan:
            # every replay of this configuration shares one result.
            return plan.quiet
        serial_members, serial_index = plan.contention(
            jitter_ms if jittered else 0.0)
        serial_count = 0 if serial_index is None else serial_index.size
        if jittered and (count < 192 or 2 * serial_count >= count):
            # Tiny or mostly-contended jittered plans: vector setup
            # cannot amortize (each replay re-draws, and contended
            # lanes are a serial recurrence), so the reference loop is
            # the fastest exact evaluator.  Delegating wholesale keeps
            # parity instead of paying array round-trips.
            return program.run(plan.reference(), jitter_ms, rng)
        if jittered:
            # Draws stay on the Python Random, in canonical order, so
            # the Mersenne sequence matches the reference for any
            # seed; only the arithmetic around them vectorizes.
            random_f = rng.random
            draws = [random_f() for _ in range(count)]
            ready = plan.ready_base + jitter_ms * np.asarray(draws)
        else:
            ready = plan.ready_base
        start = np.maximum(ready, plan.tb_a)
        stop = start + plan.duration
        if serial_members:
            # The lanes that can contend replay the exact serial
            # recurrence over plain lists; contention-free lanes keep
            # their (provably identical) vector candidates.
            ready_base = plan.ready_base_py
            tb = plan.tb_a_py
            duration = plan.duration_py
            fix_start, fix_stop = [], []
            for members in serial_members:
                free = 0.0
                for pos in members:
                    begin = (ready_base[pos] + jitter_ms * draws[pos]
                             if jittered else ready_base[pos])
                    event_begin = tb[pos]
                    if event_begin > begin:
                        begin = event_begin
                    if free > begin:
                        begin = free
                    free = begin + duration[pos]
                    fix_start.append(begin)
                    fix_stop.append(free)
            start[serial_index] = fix_start
            stop[serial_index] = fix_stop
        actual_begin = np.zeros(plan.n, dtype=np.float64)
        actual_end = np.zeros(plan.n, dtype=np.float64)
        if count:
            actual_begin[plan.active] = start
            actual_end[plan.active] = stop
        if not jittered:
            plan.quiet = (actual_begin, actual_end)
        return actual_begin, actual_end

    def audit(self, program, actual_begin, actual_end, played,
              plan=None):
        if isinstance(actual_begin, list):
            # A delegated reference run produced lists; the reference
            # audit is the fastest exact evaluator for them too.
            played_list = (plan.reference().played if plan is not None
                           else played)
            return program.audit(actual_begin, actual_end, played_list)
        view = self._view(program)
        quiet = (plan is not None and plan.quiet is not None
                 and actual_begin is plan.quiet[0])
        if quiet and plan.quiet_audit is not None:
            # The quiet run shares one (begin, end) result, so it
            # shares one audit too.
            return plan.quiet_audit
        total = len(program.audit_arcs)
        valid = np.zeros(total, dtype=bool)
        actual = np.zeros(total, dtype=np.float64)
        violation = np.zeros(total, dtype=np.float64)
        low = np.zeros(total, dtype=np.float64)
        high = np.zeros(total, dtype=np.float64)
        has_high = np.zeros(total, dtype=bool)
        if view.single_pos.size:
            source_t = np.where(view.s_beg, actual_begin[view.s_idx],
                                actual_end[view.s_idx])
            dest_t = np.where(view.d_beg, actual_begin[view.d_idx],
                              actual_end[view.d_idx])
            ok = played[view.s_idx] & played[view.d_idx]
            base = source_t + view.s_off
            lo = base + view.s_delta
            hi = base + view.s_eps
            under = dest_t < lo
            over = view.s_has_eps & (dest_t > hi)
            viol = np.where(under, dest_t - lo,
                            np.where(over, dest_t - hi, 0.0))
            pos = view.single_pos
            valid[pos] = ok
            actual[pos] = dest_t
            violation[pos] = viol
            low[pos] = lo
            high[pos] = np.where(view.s_has_eps, hi, 0.0)
            has_high[pos] = view.s_has_eps
        if view.multis:
            # Envelope arcs drop to plain lists once per audit: min/max
            # comparisons carry no rounding, so the values are exact.
            begin_list = actual_begin.tolist()
            end_list = actual_end.tolist()
            played_list = played.tolist()
            for (position, src_events, src_begin, dst_events, dst_begin,
                 offset_ms, delta_ms, epsilon_ms) in view.multis:
                tref = _py_endpoint(src_events, src_begin, begin_list,
                                    end_list, played_list)
                if tref is None:
                    continue
                arc_actual = _py_endpoint(dst_events, dst_begin,
                                          begin_list, end_list,
                                          played_list)
                if arc_actual is None:
                    continue
                base_t = tref + offset_ms
                lo_t = base_t + delta_ms
                hi_t = None if epsilon_ms is None else base_t + epsilon_ms
                if arc_actual < lo_t:
                    arc_violation = arc_actual - lo_t
                elif hi_t is not None and arc_actual > hi_t:
                    arc_violation = arc_actual - hi_t
                else:
                    arc_violation = 0.0
                valid[position] = True
                actual[position] = arc_actual
                violation[position] = arc_violation
                low[position] = lo_t
                if hi_t is not None:
                    high[position] = hi_t
                    has_high[position] = True
        results = NpArcResults(view, valid, actual, violation, low, high,
                               has_high)
        if quiet:
            plan.quiet_audit = results
        return results

    # -- array-side report statistics ------------------------------------

    def skew_by_channel(self, program, actual_begin, scheduled_begin,
                        played):
        """Worst absolute start skew per channel, whole-array form.

        Channel insertion order matches the reference dict: first
        played occurrence in canonical event order.
        """
        view = self._view(program)
        lanes = view.chan[played]
        if not lanes.size:
            return {}
        skew = np.abs(actual_begin[played] - scheduled_begin[played])
        worst = np.full(view.n_channels, -1.0)
        np.maximum.at(worst, lanes, skew)
        present, first = np.unique(lanes, return_index=True)
        channels = program.channels
        ordered = present[np.argsort(first, kind="stable")]
        return {channels[lane]: float(worst[lane])
                for lane in ordered.tolist()}


def _py_endpoint(events, anchor_begin, actual_begin, actual_end, played):
    """Envelope time of a container endpoint (min begin / max end).

    Mirrors the reference ``_endpoint_time`` exactly — comparisons
    only, so the result is order-insensitive and bit-identical.
    """
    value = None
    if anchor_begin:
        for index in events:
            if played[index]:
                candidate = actual_begin[index]
                if value is None or candidate < value:
                    value = candidate
    else:
        for index in events:
            if played[index]:
                candidate = actual_end[index]
                if value is None or candidate > value:
                    value = candidate
    return value


PYTHON_KERNEL = PythonKernel()
_numpy_kernel = None


def resolve_kernel(kernel=None):
    """A kernel backend instance for an axis value.

    ``kernel`` may be None / ``"auto"`` (NumPy when available, after
    consulting :data:`KERNEL_ENV`), a backend name, or an already
    resolved kernel instance (returned as-is, so plumbing can resolve
    once and pass the instance down).  The numpy backend — and NumPy
    itself — is built the first time it is picked.
    """
    global _numpy_kernel
    if isinstance(kernel, (PythonKernel, NumpyKernel)):
        return kernel
    name = KERNEL_AUTO if kernel is None else kernel
    if name == KERNEL_AUTO:
        name = os.environ.get(KERNEL_ENV, KERNEL_AUTO)
        if name == KERNEL_AUTO:
            name = KERNEL_NUMPY if _np.HAVE_NUMPY else KERNEL_PYTHON
    if name == KERNEL_PYTHON:
        return PYTHON_KERNEL
    if name == KERNEL_NUMPY:
        if not _np.HAVE_NUMPY:
            raise KernelError(
                "kernel 'numpy' requested but numpy is not installed; "
                "use kernel='python' (or 'auto')")
        if _numpy_kernel is None:
            _numpy_kernel = NumpyKernel()
        return _numpy_kernel
    raise KernelError(f"unknown kernel {name!r}; expected one of "
                      f"{KERNELS}")


def default_kernel():
    """The kernel ``auto`` resolves to right now (env override included)."""
    return resolve_kernel(KERNEL_AUTO)
