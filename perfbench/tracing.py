"""Span tracing of the CMIF layers from outside the program.

The traced run wraps each layer's public entry point (module functions
at the site that calls them, methods on their classes) with a recorder
that appends one span per call: name, start, end, the enclosing span
and the request it served.  Nothing under ``src/`` is changed; the
wrappers are installed for the traced pass only and removed after it.

Definitions used by the per-layer metrics:

* ``busy`` — summed duration of a name's outermost spans (a call nested
  in a call of the same name is not counted twice);
* ``self`` — busy time minus the time covered by child spans.  Spans
  nest strictly (one thread), so the covered time is the sum of the
  children's durations.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import time


def _played(counters, result) -> None:
    counters["pipeline.run_one.events"] += result.played_count


def _queue(counters, result) -> None:
    counters["serving.runqueue.steps"] += result.steps
    counters["serving.runqueue.navigations"] += result.navigations


def instrumented_entry_points():
    """``(owner, attribute, span name, counter)`` for every wrapped call.

    Functions a module imported by name are wrapped where they are
    looked up (``repro.serving.engine.schedule_for``, not
    ``repro.timing.schedule.schedule_for``), so the engine's own calls
    are the ones recorded.
    """
    from repro.core.document import CmifDocument
    from repro.pipeline.patch import LiveEditor
    from repro.pipeline.program import BatchPlayer
    from repro.serving import engine as serving_engine
    from repro.serving.runqueue import RunQueue
    from repro.store.distributed import FederatedStore
    from repro.store.placement import PlacementPolicy, ReplicateHotPolicy
    from repro.transport import package
    from repro.transport.requirements import RequirementsCache

    return [
        (package, "unpack", "transport.unpack", None),
        (package, "parse_document", "format.parse_document", None),
        (CmifDocument, "compile", "core.compile", None),
        (serving_engine, "schedule_for", "timing.schedule_for", None),
        (RequirementsCache, "requirements_for",
         "transport.requirements_for", None),
        (serving_engine, "negotiate", "transport.negotiate", None),
        (serving_engine, "adapted_program_for",
         "pipeline.adapted_program_for", None),
        (serving_engine, "adapted_navigation_for",
         "pipeline.adapted_navigation_for", None),
        (BatchPlayer, "run_one", "pipeline.run_one", _played),
        (LiveEditor, "apply", "pipeline.patch.apply", None),
        (serving_engine.SessionEngine, "admit", "serving.admit", None),
        (RunQueue, "drive", "serving.runqueue.drive", _queue),
        (FederatedStore, "stream", "store.stream", None),
        (PlacementPolicy, "plan", "store.placement.plan", None),
        (ReplicateHotPolicy, "plan", "store.placement.plan", None),
        (FederatedStore, "apply_placement", "store.apply_placement",
         None),
    ]


class NullTracer:
    """The untraced run's tracer: request spans cost one no-op call."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, request: int = 0):
        return self._NULL


class Tracer:
    """In-memory span recorder over monkeypatched layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.gc_pause_s = 0.0
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple] = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, request: int = 0):
        """A benchmark-level span; every span under it shares ``request``."""
        self._request = request
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, original, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.counters[f"{name}.calls"] += 1
            if count is not None:
                count(tracer.counters, result)
            return result
        traced.__wrapped__ = original
        return traced

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name, count in instrumented_entry_points():
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, count))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def layer_times(self, workload: str | None = None) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds — of the
        spans under ``workload``'s request spans when given."""
        child_time = [0.0] * len(self.spans)
        roots = [0] * len(self.spans)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                roots[index] = roots[parent]
            else:
                roots[index] = index
        table: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if workload is not None and not self.spans[roots[index]][0] \
                    .startswith(f"{workload}."):
                continue
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            duration = end - start
            row["self_s"] += duration - child_time[index]
            if not self._has_ancestor_named(index, name):
                row["busy_s"] += duration
        return table

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = []
        for name, start, end, parent, request in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"request": request, "parent": parent}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def self_time_table(table: dict[str, dict]) -> str:
    """A printable per-layer table, largest self time first; ``self%``
    is the share of all traced time (self times partition it)."""
    total = sum(row["self_s"] for row in table.values())
    lines = [f"{'span':34} {'calls':>8} {'busy_s':>10} {'self_s':>10} "
             f"{'self%':>6}"]
    for name, row in sorted(table.items(),
                            key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / total if total else 0.0
        lines.append(f"{name:34} {row['calls']:>8} {row['busy_s']:>10.4f} "
                     f"{row['self_s']:>10.4f} {share:>5.1f}%")
    return "\n".join(lines)
