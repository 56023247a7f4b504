"""Schedules: the solved timeline of a document (paper figure 3).

A :class:`Schedule` assigns every node a begin and end time and every
event a slot on its channel — the machine form of the paper's figure-3
view (channels as columns, event descriptors as boxes, time flowing
downward).  It is the input to the presentation player and to the
viewing tools.
"""

from __future__ import annotations

import bisect
import collections
from dataclasses import dataclass, field

from repro.core.descriptors import EventDescriptor
from repro.core.document import CmifDocument, CompiledDocument
from repro.core.errors import SchedulingConflict, ValueError_
from repro.core.timebase import times_close
from repro.timing.constraints import (Constraint, TimeVar, begin_var,
                                      build_constraints, end_var)
from repro.timing.graph import compile_graph, solve_graph
from repro.timing.solver import (RELAX_DROP_LAST, SolverResult, solve)

#: :func:`schedule_document` engines: the compiled graph every
#: production path solves through, and the pinned object-form reference
#: kept as the oracle (bit-identical; the graph is benched >=5x faster
#: on corpus documents — see benchmarks/bench_ingest.py).
ENGINE_REFERENCE = "reference"
ENGINE_GRAPH = "graph"
SCHEDULE_ENGINES = (ENGINE_REFERENCE, ENGINE_GRAPH)


@dataclass(frozen=True)
class ScheduledEvent:
    """One event with its solved presentation interval."""

    event: EventDescriptor
    begin_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        """Scheduled duration (equals the event's declared duration)."""
        return self.end_ms - self.begin_ms

    @property
    def channel(self) -> str:
        """The channel the event plays on."""
        return self.event.channel

    def overlaps(self, other: "ScheduledEvent") -> bool:
        """True when the two presentation intervals intersect."""
        return (self.begin_ms < other.end_ms - 1e-9
                and other.begin_ms < self.end_ms - 1e-9)

    def active_at(self, time_ms: float) -> bool:
        """True when the event is being presented at ``time_ms``."""
        return self.begin_ms - 1e-9 <= time_ms < self.end_ms - 1e-9

    def __str__(self) -> str:
        return (f"[{self.begin_ms:8.1f} .. {self.end_ms:8.1f}] "
                f"{self.event.event_id} on {self.channel}")


@dataclass
class Schedule:
    """The complete solved timeline of one compiled document."""

    compiled: CompiledDocument
    times_ms: dict[TimeVar, float]
    events: list[ScheduledEvent] = field(default_factory=list)
    dropped_constraints: list[Constraint] = field(default_factory=list)
    solver_iterations: int = 1
    #: lazily-cached canonical event order; schedules are treated as
    #: immutable after construction (edits produce new Schedule
    #: objects), which is what makes the cache safe.
    _ordered: tuple[ScheduledEvent, ...] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached channel lanes (see :meth:`by_channel`); treat the
    #: returned mapping as immutable.
    _by_channel: dict[str, list["ScheduledEvent"]] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached sorted distinct change points.
    _change_points: list[float] | None = field(
        default=None, repr=False, compare=False)
    #: lazily-cached :meth:`events_at` support: begin times when
    #: ``self.events`` is begin-sorted (the canonical case), else None
    #: to fall back to the linear scan.
    _begin_index: list[float] | None = field(
        default=None, repr=False, compare=False)
    _begin_sorted: bool | None = field(
        default=None, repr=False, compare=False)

    # -- queries ---------------------------------------------------------

    def ordered_events(self) -> tuple[ScheduledEvent, ...]:
        """Events in canonical :func:`event_order`, computed once.

        The player replays a schedule many times (``--replays N``,
        seeks, rate changes); caching the sort keeps each replay
        O(E) instead of O(E log E).
        """
        if self._ordered is None:
            self._ordered = tuple(sorted(self.events, key=event_order))
        return self._ordered

    @property
    def total_duration_ms(self) -> float:
        """End of the last event (the document's presentation length)."""
        if not self.events:
            return 0.0
        return max(event.end_ms for event in self.events)

    def node_begin_ms(self, path: str) -> float:
        """Begin time of the node at root-relative ``path``."""
        return self._lookup(begin_var(path))

    def node_end_ms(self, path: str) -> float:
        """End time of the node at root-relative ``path``."""
        return self._lookup(end_var(path))

    def _lookup(self, var: TimeVar) -> float:
        value = self.times_ms.get(var)
        if value is None:
            raise SchedulingConflict(f"no scheduled time for {var}")
        return value

    def by_channel(self) -> dict[str, list[ScheduledEvent]]:
        """Events grouped per channel, ordered by begin time.

        Computed once and cached — the viewer, the serialization
        invariant and conflict analysis all re-request the lanes of the
        same immutable schedule.  Treat the result as read-only.
        """
        if self._by_channel is None:
            lanes: dict[str, list[ScheduledEvent]] = {
                name: [] for name in self.compiled.per_channel}
            for event in self.events:
                lanes.setdefault(event.channel, []).append(event)
            for lane in lanes.values():
                lane.sort(key=lambda e: (e.begin_ms, e.end_ms))
            self._by_channel = lanes
        return self._by_channel

    def events_at(self, time_ms: float) -> list[ScheduledEvent]:
        """Every event active at ``time_ms`` (the figure-4a screen state).

        When ``self.events`` is begin-sorted (the canonical order
        :func:`make_schedule` produces), a cached begin index cuts the
        scan to events that have begun by ``time_ms``; otherwise the
        seed's full linear scan runs, so results — including their
        ``self.events`` ordering — never change.
        """
        if self._begin_sorted is None:
            begins = [event.begin_ms for event in self.events]
            self._begin_sorted = all(
                earlier <= later
                for earlier, later in zip(begins, begins[1:]))
            self._begin_index = begins if self._begin_sorted else None
        if not self._begin_sorted:
            return [event for event in self.events
                    if event.active_at(time_ms)]
        # active_at admits begins up to time_ms + 1e-9; bisect on that.
        cut = bisect.bisect_right(self._begin_index, time_ms + 1e-9)
        return [event for event in self.events[:cut]
                if event.active_at(time_ms)]

    def event_for_path(self, node_path: str) -> ScheduledEvent:
        """The scheduled event originating from the leaf at ``node_path``."""
        for event in self.events:
            if event.event.node_path == node_path:
                return event
        raise SchedulingConflict(f"no event scheduled for {node_path}")

    def change_points(self) -> list[float]:
        """Sorted distinct times where any event begins or ends.

        Cached on first call (the viewer and analyses sweep the same
        immutable schedule's change points repeatedly); a fresh list is
        returned each time so callers may slice or mutate freely.
        """
        if self._change_points is None:
            points: set[float] = set()
            for event in self.events:
                points.add(round(event.begin_ms, 6))
                points.add(round(event.end_ms, 6))
            self._change_points = sorted(points)
        return list(self._change_points)

    def channel_utilization(self) -> dict[str, float]:
        """Fraction of the document span each channel is busy.

        A channel's busy time is the sum of its event durations; the
        channel-serialization invariant guarantees no double counting.
        """
        total = self.total_duration_ms
        if total <= 0:
            return {name: 0.0 for name in self.compiled.per_channel}
        busy: dict[str, float] = {name: 0.0
                                  for name in self.compiled.per_channel}
        for event in self.events:
            busy[event.channel] = busy.get(event.channel, 0.0) \
                + event.duration_ms
        return {name: value / total for name, value in busy.items()}

    # -- invariants ---------------------------------------------------------

    def assert_channel_serialization(self) -> None:
        """Check no two events on one channel overlap (section 3.1)."""
        for channel, lane in self.by_channel().items():
            for before, after in zip(lane, lane[1:]):
                if before.overlaps(after):
                    raise SchedulingConflict(
                        f"events overlap on channel {channel!r}: "
                        f"{before} and {after}")

    def shifted(self, delta_ms: float) -> "Schedule":
        """A copy with every time moved by ``delta_ms`` (for previews)."""
        return Schedule(
            compiled=self.compiled,
            times_ms={var: t + delta_ms
                      for var, t in self.times_ms.items()},
            events=[ScheduledEvent(e.event, e.begin_ms + delta_ms,
                                   e.end_ms + delta_ms)
                    for e in self.events],
            dropped_constraints=list(self.dropped_constraints),
            solver_iterations=self.solver_iterations,
        )


class ScheduleCache:
    """Solved schedules keyed by document revision (LRU, bounded).

    The authoring loop and the player re-request the same timeline many
    times — across seeks, replays, and view refreshes — while the
    document itself only changes when an edit bumps
    :attr:`~repro.core.document.CmifDocument.revision`.  The cache keys
    on ``(document identity, revision, solve parameters)``, so a stale
    schedule can never be served: any edit moves the document to a new
    key.  Entries hold a reference to their document, which both pins
    the identity and keeps ``id()`` reuse impossible.

    The cache is a plain store: :func:`schedule_for` is the one function
    that solves on a miss and fills it.  The incremental engine
    (:mod:`repro.timing.incremental`) publishes its patched schedule
    here after every edit, so cache consumers get incremental re-solves
    for free.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity <= 0:
            raise ValueError_(f"cache capacity must be positive, "
                              f"got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: collections.OrderedDict[
            tuple, tuple[CmifDocument, Schedule]] = collections.OrderedDict()

    @staticmethod
    def _key(document: CmifDocument, channel_serialization: bool,
             relaxation_policy: str) -> tuple:
        return (id(document), document.revision, channel_serialization,
                relaxation_policy)

    def get(self, document: CmifDocument, *,
            channel_serialization: bool = True,
            relaxation_policy: str = RELAX_DROP_LAST) -> Schedule | None:
        """The cached schedule for the document's current revision."""
        key = self._key(document, channel_serialization, relaxation_policy)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, document: CmifDocument, schedule: Schedule, *,
            channel_serialization: bool = True,
            relaxation_policy: str = RELAX_DROP_LAST) -> None:
        """Store a schedule under the document's current revision.

        Entries of the same document at *other* revisions are evicted:
        their keys embed a superseded revision and can never be probed
        again (``get`` always keys on the current revision), so keeping
        them would leak one entry per edit for as long as the document
        lives.
        """
        key = self._key(document, channel_serialization, relaxation_policy)
        stale = [old for old in self._entries
                 if old[0] == id(document) and old[1] != document.revision]
        for old in stale:
            del self._entries[old]
        self._entries[key] = (document, schedule)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        return (f"schedule cache: {len(self._entries)} entr(y/ies), "
                f"{self.hits} hit(s), {self.misses} miss(es)")


def schedule_document(compiled: CompiledDocument, *,
                      channel_serialization: bool = True,
                      relaxation_policy: str = RELAX_DROP_LAST,
                      engine: str = ENGINE_GRAPH,
                      kernel=None) -> Schedule:
    """Compile-to-timeline in one call: lower, solve, wrap — no cache.

    Production code solves through the compiled graph
    (:mod:`repro.timing.graph`) and reaches this function through
    :func:`schedule_for`.  ``engine=ENGINE_REFERENCE`` runs the pinned
    object-form :func:`~repro.timing.solver.solve` instead: it is the
    oracle the equivalence tests and benchmark checks compare against,
    and the solver the serving fault-degradation paths fall back to.
    The two are bit-identical.  ``kernel`` picks the numeric backend
    for the graph solve's relaxation sweeps (:mod:`repro.kernel`; also
    bit-identical).
    """
    if engine == ENGINE_GRAPH:
        graph = compile_graph(
            compiled, channel_serialization=channel_serialization)
        result = solve_graph(graph, relaxation_policy=relaxation_policy,
                             kernel=kernel)
    elif engine == ENGINE_REFERENCE:
        system = build_constraints(
            compiled, channel_serialization=channel_serialization)
        result = solve(system, relaxation_policy=relaxation_policy)
    else:
        raise ValueError_(f"unknown schedule engine {engine!r}; expected "
                          f"one of {SCHEDULE_ENGINES}")
    return make_schedule(compiled, result)


def wrap_event(event: EventDescriptor,
               times_ms: dict[TimeVar, float]) -> ScheduledEvent:
    """One event's solved interval, checked against its duration.

    The single place the span-equals-duration contract lives; both the
    full wrap below and the incremental engine's schedule patch use it,
    so the two paths cannot drift apart.
    """
    begin = times_ms[begin_var(event.node_path)]
    end = times_ms[end_var(event.node_path)]
    if not times_close(end - begin, event.duration_ms, 1e-3):
        raise SchedulingConflict(
            f"solver assigned {event.event_id} a span of "
            f"{end - begin:g}ms but its duration is "
            f"{event.duration_ms:g}ms")
    return ScheduledEvent(event, begin, end)


def event_order(event: ScheduledEvent) -> tuple[float, float, str]:
    """The canonical sort key of a schedule's event list."""
    return (event.begin_ms, event.end_ms, event.event.event_id)


def make_schedule(compiled: CompiledDocument,
                  result: SolverResult) -> Schedule:
    """Wrap a solver result into a :class:`Schedule`.

    Engine-agnostic: both the reference solve and the graph solve
    produce the same :class:`SolverResult` shape.
    """
    events = [wrap_event(event, result.times_ms)
              for event in compiled.events]
    events.sort(key=event_order)
    return Schedule(
        compiled=compiled,
        times_ms=result.times_ms,
        events=events,
        dropped_constraints=result.dropped,
        solver_iterations=result.iterations,
    )


def schedule_for(document: CmifDocument, *,
                 cache: ScheduleCache | None = None,
                 channel_serialization: bool = True,
                 relaxation_policy: str = RELAX_DROP_LAST,
                 kernel=None,
                 compiled: CompiledDocument | None = None) -> Schedule:
    """The document's schedule, solved at most once per revision.

    The one cache-or-solve function: the player, viewer, CLI, ingest
    and serving paths all schedule through it.  With ``cache``, a
    schedule already stored for the document's current revision is
    returned as is; a miss (or no cache) pays compile → graph solve →
    wrap and stores the result.  ``compiled``, when given, is
    ``document.compile()`` at the current revision and stands in for
    compiling again.  ``kernel`` is absent from cache keys: both
    kernels are bit-identical.
    """
    if cache is not None:
        cached = cache.get(document,
                           channel_serialization=channel_serialization,
                           relaxation_policy=relaxation_policy)
        if cached is not None:
            return cached
    schedule = schedule_document(
        compiled if compiled is not None else document.compile(),
        channel_serialization=channel_serialization,
        relaxation_policy=relaxation_policy, kernel=kernel)
    if cache is not None:
        cache.put(document, schedule,
                  channel_serialization=channel_serialization,
                  relaxation_policy=relaxation_policy)
    return schedule
