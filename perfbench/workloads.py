"""The benchmark's three workloads: fixed catalogs, seeded traffic.

Every workload is a closed loop with one client in this process: the
next request is sent when the previous one returned.  A workload makes
its inputs in ``__init__`` (untimed), brings the program up in
``setup()`` (timed as set-up), does its measured work in the steps of
``steps()`` (one or more steps per unit) and checks the program's
outputs against the retained references in ``check()``, outside every
timed region.  Wall times are recorded per step, so the runner can
scale them to the machine's speed during that step.

Units are seeded by their index, so the first ``min_units`` units of a
run are the same work for the same seed however long the run goes on.
The deterministic counts (patched share, incremental share, simulated
fetch cost and bytes per session) are taken over those units only, so
they repeat exactly for a seed.

Failure accounting: a negotiation verdict of ``unplayable`` is a
correct answer, not a failure.  An exception from an operation, an edit
conflict, a reference mismatch and a non-empty fault ledger are.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import traceback

from repro.core.errors import CmifError
from repro.corpus.generate import make_media_document
from repro.corpus.workload import (SessionRequest, WorkloadSpec,
                                   build_workload, serve_workload,
                                   zipf_weights)
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import compile_navigation
from repro.pipeline.player import Player
from repro.pipeline.program import compile_program
from repro.serving import SessionEngine
from repro.timing.schedule import (ENGINE_REFERENCE, schedule_document,
                                   schedule_for)
from repro.transport import package
from repro.transport.environments import PROFILES

#: Generator seed of the fixed catalogs (the ``serve --generate`` and
#: :class:`WorkloadSpec` default): every workload serves the same
#: documents under every benchmark seed, which draws the traffic —
#: open order, session seeds, reader traces, edits and requests.  The
#: figures then compare across seeds; the catalogs still mix sizes,
#: media and verdicts as the generator makes them.
CATALOG_SEED = 1991

#: Federation units whose rows are checked against a static pass.
CHECKED_UNITS = 1

#: Per-layer cache counters read off a :class:`SessionEngine`.
_CACHES = (("timing.schedule_cache", "schedule_cache"),
           ("transport.requirements_cache", "requirements_cache"),
           ("pipeline.program_cache", "program_cache"))


def cache_counts(engine: SessionEngine) -> dict[str, int]:
    counts = {}
    for label, attribute in _CACHES:
        cache = getattr(engine, attribute)
        counts[f"{label}.hits"] = cache.hits
        counts[f"{label}.misses"] = cache.misses
    return counts


def percentile(samples: list[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``samples`` (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


class Workload:
    """Shared bookkeeping: attempted/failed counts and cache deltas."""

    name = ""

    def __init__(self, seed: int, min_units: int) -> None:
        self.seed = seed
        self.min_units = min_units
        self.reset()

    def reset(self) -> None:
        """Forget every measurement (a traced pass starts clean)."""
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.caches: dict[str, int] = {}
        #: The runner's id of the step in progress.
        self.step = 0
        #: name -> [(step, wall seconds)], scaled to the machine's speed
        #: during that step when the metrics are taken.
        self.walls: dict[str, list[tuple[int, float]]] = {}

    def record(self, name: str, seconds: float) -> None:
        self.walls.setdefault(name, []).append((self.step, seconds))

    def scaled(self, name: str, scale) -> list[float]:
        """The ``name`` walls times their step's speed factor."""
        return [seconds * scale(step)
                for step, seconds in self.walls.get(name, ())]

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"[{self.name}] FAILED {what}", file=sys.stderr)

    def fail_exception(self, what: str, count: int = 1) -> None:
        self.fail(f"{what}: {traceback.format_exc()}", count)

    def add_cache_delta(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            self.caches[key] = (self.caches.get(key, 0) + value
                                - before.get(key, 0))

    def setup(self) -> None:
        """Bring the program up from the inputs (timed as set-up)."""

    #: Steps (yields of :meth:`steps`) per unit of work.
    steps_per_unit = 1

    def steps(self, tracer):
        """Do the measured work, yielding every step; ``units`` counts
        the completed units.  The runner interleaves the steps of all
        workloads, so each one's samples span the whole run."""
        while True:
            self.unit(tracer)
            self.units += 1
            yield

    def unit(self, tracer) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare outputs with the references; mismatches fail."""

    def release(self) -> None:
        """Drop the program state once the metrics were taken."""

    def metrics(self, scale) -> dict[str, tuple[float, str, int]]:
        """End-to-end metrics: name -> (value, unit, sample count);
        ``scale(step)`` is the speed factor of a step."""
        raise NotImplementedError

    def layer_counts(self) -> dict[str, int]:
        """Per-layer counts read off program state (not from spans)."""
        return dict(self.caches)


class ColdOpen(Workload):
    """A catalog of transport packages, every one opened cold.

    The catalog is fixed (built from :data:`CATALOG_SEED`): sizes follow
    a log-spaced ladder from ``min_events`` to ``max_events`` with a
    +-10% jitter; in every ten documents of the ladder seven are rich
    (all four media, as the generator draws 70% of the time) and in
    every three one carries two hyper-links.  One unit is a pass over the
    whole catalog, in an order drawn from the benchmark seed, on a fresh
    engine seeded from it: every document is read from disk, unpacked,
    admitted on all three profiles and replayed once per admitted
    session.  A step is ``chunk`` documents.
    """

    name = "cold-open"
    #: Documents opened per step.
    chunk = 5

    def __init__(self, seed: int, directory, *, documents: int = 100,
                 min_events: int = 25, max_events: int = 800,
                 checked_documents: int = 2, min_units: int = 2) -> None:
        self.steps_per_unit = -(-documents // self.chunk)
        rng = random.Random(f"cold-open:{CATALOG_SEED}")
        rich: list[bool] = []
        linked: list[bool] = []
        while len(rich) < documents:
            rich += rng.sample([True] * 7 + [False] * 3, 10)
        while len(linked) < documents:
            linked += rng.sample([True, False, False], 3)
        directory.mkdir(parents=True, exist_ok=True)
        # The catalog is written once; later runs read it back.
        complete = directory / "complete"
        self.paths = []
        for index in range(documents):
            step = index / max(1, documents - 1)
            ladder = min_events * (max_events / min_events) ** step
            events = min(max_events, max(min_events, round(
                ladder * rng.uniform(0.9, 1.1))))
            document_seed = CATALOG_SEED + index
            path = directory / f"{index:03d}-{events}.cmifpkg"
            self.paths.append(path)
            if complete.exists():
                continue
            document = make_media_document(
                document_seed, events=events, rich=rich[index],
                links=2 if linked[index] else 0)
            path.write_text(package.pack(document), encoding="utf-8")
        complete.touch()
        self.sizes = [path.stat().st_size for path in self.paths]
        self.checked = set(random.Random(f"cold-open:{seed}").sample(
            range(documents), min(checked_documents, documents)))
        super().__init__(seed, min_units)

    def reset(self) -> None:
        super().reset()
        self.bytes_opened = 0
        #: (session, served report) pairs of the checked documents.
        self.samples: list[tuple] = []

    def steps(self, tracer):
        while True:
            engine = SessionEngine(seed=self.seed)
            order = list(range(len(self.paths)))
            random.Random(f"cold-open:{self.seed}:{self.units}").shuffle(
                order)
            for position, index in enumerate(order):
                self.open(engine, index, tracer)
                if (position + 1) % self.chunk == 0 \
                        and position + 1 < len(order):
                    yield
            self.add_cache_delta({}, cache_counts(engine))
            if not engine.robustness.empty:
                self.fail(f"pass {self.units}: fault ledger is not empty")
            self.units += 1
            yield

    def open(self, engine, index: int, tracer) -> None:
        """Read, unpack, admit on every profile, replay once."""
        keep = self.units == 0 and index in self.checked
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span("cold-open.open", index):
                text = self.paths[index].read_text(encoding="utf-8")
                document = package.unpack(text).document
                for environment in PROFILES:
                    session = engine.admit(document, environment)
                    if not session.admitted:
                        continue
                    report = session.play()
                    if keep:
                        self.samples.append((session, report))
        except Exception:
            self.fail_exception(f"open of {self.paths[index].name}")
            return
        self.record("open", time.perf_counter() - start)
        self.bytes_opened += self.sizes[index]

    def check(self) -> None:
        """Served reports == interpretive reference on reference solves."""
        for session, report in self.samples:
            adaptation = session.program.adaptation
            document = (adaptation.adapt_document(session.document)
                        if adaptation is not None else session.document)
            schedule = schedule_document(document.compile(),
                                         engine=ENGINE_REFERENCE)
            reference = Player(session.environment).play_reference(
                schedule, rng=session.rng_for(0))
            if report.materialize() != reference:
                self.fail(f"session {session.session_id} "
                          f"({session.environment.name}) differs from "
                          f"Player.play_reference")

    def release(self) -> None:
        self.samples = []

    def metrics(self, scale):
        open_ms = [seconds * 1000.0
                   for seconds in self.scaled("open", scale)]
        count = len(open_ms)
        wall_s = sum(open_ms) / 1000.0
        return {
            "open_p50_ms": (statistics.median(open_ms), "ms", count),
            "open_p90_ms": (percentile(open_ms, 0.9), "ms", count),
            "open_mb_per_s": (self.bytes_opened / 1e6 / wall_s, "MB/s",
                              count),
        }


class HotFleet(Workload):
    """A warm catalog served by many tenants while an author edits it.

    Set-up unpacks the catalog, admits ``batch`` batch sessions per
    (document, profile) and drives one warm-up round.  One unit is an
    epoch: ``interactive`` fresh readers per pair are admitted on the
    warm caches, then the run queue drives ``rounds`` rounds while
    ``edits`` live edits land between quanta, spread evenly over the
    epoch and cycling over the documents.  Edits are leaf retimes and,
    every third, adds of forward must arcs (source ends before the
    destination begins, no upper bound — always satisfiable), each
    followed on its document by the edit that undoes it: a retime back,
    an arc remove.
    """

    name = "hot-fleet"

    def __init__(self, seed: int, *, documents: int = 12,
                 events: int = 200, links: int = 2, batch: int = 8,
                 interactive: int = 2, rounds: int = 8, edits: int = 14,
                 min_units: int = 12) -> None:
        self.packages = [package.pack(make_media_document(
            CATALOG_SEED + index, events=events, links=links))
            for index in range(documents)]
        self.batch_per_pair = batch
        self.interactive = interactive
        self.rounds = rounds
        self.edits = edits
        super().__init__(seed, min_units)

    def reset(self) -> None:
        super().reset()
        self.events_played = 0
        self.conflicts = 0
        #: per epoch: [patched edits, edits, incremental solves, solves]
        self.epoch_counts: list[list[int]] = []

    def setup(self) -> None:
        self.engine = SessionEngine(seed=self.seed)
        self.documents = [package.unpack(text).document
                          for text in self.packages]
        self.batch = [self.engine.admit(document, environment)
                      for document in self.documents
                      for environment in PROFILES
                      for _ in range(self.batch_per_pair)]
        self.engine.drive(self.batch, 1)
        #: id(document) -> the edit spec that undoes its last edit.
        self.undo: dict[int, dict] = {}
        #: id(document) -> edits made on it, undos not counted.
        self.serials: dict[int, int] = {}
        #: Documents with a live editor (those edited so far).
        self.edited: list = []

    def _solver_counts(self) -> tuple[int, int]:
        solves = incremental = 0
        for document in self.edited:
            stats = self.engine.editor_for(document).stats
            solves += stats.edits
            incremental += stats.incremental_solves
        return incremental, solves

    def _edit_spec(self, rng: random.Random, document) -> dict:
        """The document's next edit: the undo of its previous edit when
        one is pending, else the next of a retime, a retime and a
        forward arc add, on leaves drawn from ``rng``.

        Undoing every edit keeps each document near its published
        revision, and the fixed order of edit kinds keeps every
        document's mix the same, so the share of edits that patch
        rather than rebuild is a property of the catalog, not of the
        seed or of how long the run went on.
        """
        undo = self.undo.pop(id(document), None)
        if undo is not None:
            return undo
        serial = self.serials.get(id(document), 0)
        self.serials[id(document)] = serial + 1
        events = self.engine.editor_for(document).schedule.events
        if serial % 3 == 2:
            source = rng.choice(events)
            later = [event for event in events
                     if event.begin_ms >= source.end_ms]
            if later:
                self.undo[id(document)] = {
                    "op": "remove_arc", "owner": "/",
                    "index": len(document.root.arcs)}
                return {"op": "add_arc", "owner": "/",
                        "source": source.event.node_path,
                        "destination": rng.choice(later).event.node_path,
                        "src_anchor": "end", "dst_anchor": "begin",
                        "strictness": "must", "max_delay_ms": None}
        event = rng.choice(events)
        path = event.event.node_path
        self.undo[id(document)] = {"op": "retime", "path": path,
                                   "duration_ms": event.duration_ms}
        return {"op": "retime", "path": path,
                "duration_ms": round(rng.uniform(400.0, 6000.0), 1)}

    def _edit(self, rng, document, sessions, tracer, request, counts):
        def apply() -> None:
            self.attempted += 1
            if document not in self.edited:
                self.edited.append(document)
            spec = self._edit_spec(rng, document)
            start = time.perf_counter()
            try:
                with tracer.span("hot-fleet.edit", request):
                    record = self.engine.apply_edit(document, spec,
                                                    sessions=sessions)
            except CmifError as exc:
                self.conflicts += 1
                self.fail(f"edit conflict {spec}: {exc}")
                return
            except Exception:
                self.fail_exception(f"edit {spec}")
                return
            self.record("edit", time.perf_counter() - start)
            counts[0] += record.mode == "patched"
            counts[1] += 1
        return apply

    def unit(self, tracer) -> None:
        engine = self.engine
        epoch = self.units
        # The author's edit script is part of the fixed workload, like
        # the catalog: the share of edits that patch, and with it where
        # the median edit falls, then does not move with the seed.
        rng = random.Random(f"hot-fleet:{CATALOG_SEED}:{epoch}")
        caches_before = cache_counts(engine)
        readers = [engine.admit_interactive(document, environment)
                   for document in self.documents
                   for environment in PROFILES
                   for _ in range(self.interactive)]
        sessions = self.batch + readers
        steps = sum(session.admitted for session in self.batch) \
            * self.rounds
        counts = [0, 0, 0, 0]
        incremental_before, solves_before = self._solver_counts()
        edits = [(k * steps // self.edits,
                  self._edit(rng, self.documents[
                      (epoch * self.edits + k) % len(self.documents)],
                      sessions, tracer, epoch * self.edits + k, counts))
                 for k in range(self.edits)]
        events_before = sum(stats.events_played
                            for stats in engine.stats.values())
        start = time.perf_counter()
        try:
            with tracer.span("hot-fleet.drive", epoch):
                engine.drive(sessions, self.rounds, edits=edits)
        except Exception:
            self.fail_exception(f"drive of epoch {epoch}")
        self.record("drive", time.perf_counter() - start)
        self.events_played += sum(stats.events_played for stats
                                  in engine.stats.values()) - events_before
        self.add_cache_delta(caches_before, cache_counts(engine))
        incremental_after, solves_after = self._solver_counts()
        counts[2] = incremental_after - incremental_before
        counts[3] = solves_after - solves_before
        self.epoch_counts.append(counts)

    def check(self) -> None:
        """Every patched program == a cold recompile of its document."""
        if not self.engine.robustness.empty:
            self.fail("fault ledger is not empty")
        for document in self.documents:
            schedule = self.engine.editor_for(document).schedule
            cold = schedule_for(document, kernel=self.engine.kernel)
            cold_base = compile_program(cold)
            cache = self.engine.program_cache
            for environment in (None,) + tuple(PROFILES):
                program = cache.get(schedule, environment=environment)
                if program is None:
                    continue
                if program_rows(program) != program_rows(cold_base):
                    self.fail(f"{document.root.name}: patched program "
                              f"differs from a cold recompile")
                if program.adaptation is not None and adaptation_rows(
                        program.adaptation) != adaptation_rows(
                        adaptation_for(cold, environment)):
                    self.fail(f"{document.root.name}: patched adaptation "
                              f"differs from a cold recompile")
            navigation = cache.get_derived(schedule, "navigation")
            if navigation is not None and navigation_rows(navigation) \
                    != navigation_rows(compile_navigation(cold)):
                self.fail(f"{document.root.name}: patched navigation "
                          f"differs from a cold recompile")

    def release(self) -> None:
        self.engine = self.documents = self.batch = None
        self.undo = {}

    def metrics(self, scale):
        edit_ms = [seconds * 1000.0
                   for seconds in self.scaled("edit", scale)]
        count = len(edit_ms)
        drive_s = sum(self.scaled("drive", scale))
        return {
            "replay_events_per_s": (self.events_played / drive_s,
                                    "events/s", self.units),
            "edit_p50_ms": (statistics.median(edit_ms), "ms", count),
            "edit_p90_ms": (percentile(edit_ms, 0.9), "ms", count),
        }

    def layer_counts(self):
        first = self.epoch_counts[:self.min_units]
        counts = super().layer_counts()
        for column, key in enumerate(("pipeline.patch.patched",
                                      "pipeline.patch.edits",
                                      "timing.incremental_solves",
                                      "timing.solves")):
            counts[key] = sum(row[column] for row in first)
        counts["pipeline.patch.conflicts"] = self.conflicts
        return counts


def program_rows(program) -> tuple:
    """The compiled arrays a patched program must share with a cold one."""
    return (list(program.begin_ms), list(program.end_ms),
            list(program.channel_index), list(program.medium_index),
            program.node_paths, program.channels, program.media,
            program._audit_rows,
            [(arc.owner_path, arc.source_events, arc.dest_events,
              arc.strictness, arc.description)
             for arc in program.nav_arcs])


def adaptation_rows(adaptation) -> tuple:
    return (adaptation.descriptor_ids, adaptation.op_slot,
            adaptation.actions, adaptation.overrides)


def navigation_rows(navigation) -> tuple:
    return (navigation.active_from, navigation.active_until,
            navigation.conditions, navigation.targets,
            navigation.destinations,
            [(guard.src_begin_ms, guard.src_end_ms, guard.dst_begin_ms)
             for guard in navigation.guards])


class FederatedZipf(Workload):
    """Zipf-skewed sessions against a four-site star federation.

    The federation is fixed: the default :class:`WorkloadSpec` world of
    16 small documents authored at seeded sites.  One unit rebuilds it
    (set-up, untimed) and serves a fresh seeded stream of ``sessions``
    requests — documents drawn zipf s=1.2, origins at the document's
    favourite site with probability 0.75 — with two replays each under
    the ``replicate-hot`` policy, replanning every 50 sessions.
    """

    name = "federated-zipf"

    def __init__(self, seed: int, *, sessions: int = 800,
                 documents: int = 16, rebalance_every: int = 50,
                 replays: int = 2, min_units: int = 6) -> None:
        self.spec = WorkloadSpec(sites=4, topology="star",
                                 documents=documents, sessions=0,
                                 zipf_s=1.2, locality=0.75,
                                 seed=CATALOG_SEED)
        self.sessions_per_unit = sessions
        self.rebalance_every = rebalance_every
        self.replays = replays
        super().__init__(seed, min_units)

    def reset(self) -> None:
        super().reset()
        self.sessions = 0
        #: per unit: (requests, served rows, traffic counters)
        self.served: list[tuple] = []
        self.prepared = None

    def requests(self, workload, unit: int) -> list[SessionRequest]:
        rng = random.Random(f"federated-zipf:{self.seed}:{unit}")
        weights = zipf_weights(len(workload.documents), self.spec.zipf_s)
        requests = []
        for _ in range(self.sessions_per_unit):
            index = rng.choices(range(len(workload.documents)),
                                weights=weights)[0]
            origin = (workload.homes[index][1]
                      if rng.random() < self.spec.locality
                      else rng.choice(workload.site_names))
            requests.append(SessionRequest(origin, index))
        return requests

    def setup(self) -> None:
        self.prepared = build_workload(self.spec)

    def serve(self, workload, requests, policy: str, unit: int):
        workload.requests = requests
        engine = SessionEngine(federation=workload.federation,
                               seed=self.seed * 1000 + unit)
        reports = serve_workload(workload, PROFILES, policy=policy,
                                 rebalance_every=self.rebalance_every,
                                 replays=self.replays, engine=engine)
        rows = [row for report in reports
                for row in report.sessions_served]
        return engine, rows

    def unit(self, tracer) -> None:
        unit = self.units
        workload = self.prepared or build_workload(self.spec)
        self.prepared = None
        requests = self.requests(workload, unit)
        self.attempted += len(requests)
        start = time.perf_counter()
        try:
            with tracer.span("federated-zipf.serve", unit):
                engine, rows = self.serve(workload, requests,
                                          "replicate-hot", unit)
        except Exception:
            # Every session of the unit is lost with it.
            self.fail_exception(f"serve of unit {unit}",
                                count=len(requests))
            return
        self.record("serve", time.perf_counter() - start)
        self.sessions += len(requests)
        traffic = workload.federation.traffic
        if not (engine.robustness.empty and traffic.robustness.empty):
            self.fail(f"unit {unit}: fault ledger is not empty")
        self.add_cache_delta({}, cache_counts(engine))
        self.served.append((requests, rows, traffic.counters()))

    def check(self) -> None:
        """Served rows == a ``static``-policy pass over the requests."""
        for unit, (requests, rows, _) in enumerate(
                self.served[:CHECKED_UNITS]):
            _, static_rows = self.serve(build_workload(self.spec),
                                        requests, "static", unit)
            if rows != static_rows:
                self.fail(f"unit {unit}: served rows differ from the "
                          f"static-policy pass")

    def release(self) -> None:
        self.prepared = None

    def traffic(self, units: int | None = None) -> tuple[int, dict]:
        """Sessions and summed traffic counters of the first units."""
        served = self.served[:units]
        totals: dict = {}
        for _, _, traffic in served:
            for key, value in traffic.items():
                totals[key] = totals.get(key, 0) + value
        return sum(len(requests) for requests, _, _ in served), totals

    def metrics(self, scale):
        sessions, traffic = self.traffic(self.min_units)
        return {
            "fed_sessions_per_s": (self.sessions
                                   / sum(self.scaled("serve", scale)),
                                   "sessions/s", self.sessions),
            "fed_fetch_ms_per_session": (
                traffic["simulated_ms"] / sessions, "ms", sessions),
            "fed_bytes_per_session": (
                traffic["total_bytes"] / sessions, "bytes", sessions),
        }

    def layer_counts(self):
        counts = super().layer_counts()
        _, totals = self.traffic()
        for key in ("requests", "local_requests", "placement_moves"):
            counts[f"store.{key}"] = totals.get(key, 0)
        return counts


WORKLOADS = ("cold-open", "hot-fleet", "federated-zipf")
