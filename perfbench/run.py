"""End-to-end benchmark of the CMIF serving stack.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload hot-fleet --seed 1 --seconds 13
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Three workloads drive the public API (see ``workloads.py``):
``cold-open`` (a catalog of packages opened cold), ``hot-fleet`` (a
warm fleet replaying while an author edits) and ``federated-zipf``
(zipf sessions over a placed federation).  Every run drives all three,
their steps interleaved, so that every run reports every end-to-end
metric and a slow spell of the shared machine falls on all of them.
``--workload`` names the primary one, which goes on past its minimum
units until its own steps took ``--seconds``; ``all`` makes all three
primary.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
primaries' minimum units and half the others' untraced and then
traced, and prints the per-layer metrics, a self-time table per
workload and a Chrome trace file that opens in Perfetto
(``perfbench/results/``).  Wall times are scaled to a machine of
nominal speed by :class:`Speedometer`.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation succeeded and every output matched its
reference.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: Generated inputs, kept between runs.
CACHE = HERE / ".cache"

#: Set-ups per run, each from a collected heap; the median is reported.
SETUP_REPEATS = 3
#: Fresh interpreters timed for ``import_ms`` (spread over the run, as
#: the machine's speed drifts); the median is reported.
IMPORT_SAMPLES = 7
#: Workload steps between two ``import_ms`` samples.
IMPORT_STRIDE = 8

#: Per-layer ratio -> (counted part, counts that sum to the attempts).
RATIOS = {
    f"{layer}.hit_ratio": (f"{layer}.hits",
                           (f"{layer}.hits", f"{layer}.misses"))
    for layer in ("timing.schedule_cache", "transport.requirements_cache",
                  "pipeline.program_cache")}
RATIOS.update({
    "timing.incremental_share": ("timing.incremental_solves",
                                 ("timing.solves",)),
    "pipeline.patch.patched_share": ("pipeline.patch.patched",
                                     ("pipeline.patch.edits",)),
    "store.remote_share": ("store.requests",
                           ("store.requests", "store.local_requests")),
})

IMPORT_PROBE = ("import time; start = time.perf_counter(); "
                "import repro.cli; "
                "print(time.perf_counter() - start)")

#: The speed probe: iterations, and its time on the nominal machine.
PROBE_LOOPS = 8_000
PROBE_NOMINAL_S = 0.006


def machine_facts() -> dict:
    """Facts every absolute number is stated with."""
    import numpy

    from repro.kernel import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel(None).name,
        "platform": platform.platform(),
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
    }


def import_seconds() -> float:
    """``import repro.cli`` in a fresh interpreter, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


def make_workloads(seed: int) -> list:
    from workloads import ColdOpen, FederatedZipf, HotFleet

    return [ColdOpen(seed, CACHE / "cold-open"), HotFleet(seed),
            FederatedZipf(seed)]


class _ProbeItem:
    __slots__ = ("number", "key")

    def __init__(self, number: int, key: str) -> None:
        self.number = number
        self.key = key


class Speedometer:
    """Scales wall times to a machine of nominal speed.

    The benchmark shares its machine, whose speed drifts by tens of
    percent over seconds.  A fixed pure-Python loop (the probe, which
    uses no program code) is timed between every two steps of the run;
    a step's factor is the nominal probe time over the mean of the
    probes on either side of it.  A
    wall time times its step's factor is what the step would have taken
    on a machine where the probe takes :data:`PROBE_NOMINAL_S`, so a
    slow spell of the machine does not read as a slower program.
    """

    def __init__(self) -> None:
        self.factors: dict[int, float] = {}
        self.probes: list[float] = []
        self._ids = itertools.count()
        self._last = self._probe()

    def _probe(self) -> float:
        # Dict, string and object work like the program's, with the
        # collector off so that the live heap's size does not time it.
        gc.disable()
        try:
            start = time.perf_counter()
            table = {}
            for value in range(PROBE_LOOPS):
                key = f"k{value}"
                table[key] = _ProbeItem(value, key)
            sum(item.number + len(item.key) for item in table.values())
            sorted(table, key=len)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        self.probes.append(elapsed)
        return elapsed

    def next_step(self) -> int:
        return next(self._ids)

    def close(self, step: int) -> float:
        """Probe after ``step`` ran; returns its speed factor."""
        now = self._probe()
        factor = PROBE_NOMINAL_S / ((self._last + now) / 2.0)
        self.factors[step] = factor
        self._last = now
        return factor

    def timed(self, call) -> float:
        """Run ``call()`` as a step of its own; scaled wall seconds."""
        step = self.next_step()
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        return elapsed * self.close(step)

    def scale(self, step: int) -> float:
        return self.factors[step]


def run_steps(workloads, tracer, meter: Speedometer, *, primaries=(),
              seconds: float = 0.0, units=None, between=None) -> dict:
    """Interleave the workloads' steps until each has its units.

    The workload least far through its quota steps next, so every
    workload's samples spread over the whole run and a slow spell of
    the machine lands on all of them alike.  A workload stops at a unit
    boundary once it did ``units[name]`` units when given, else its
    minimum units and, for a primary, once its own steps took
    ``seconds`` (scaled).
    ``between`` runs after every step.  Returns each workload's scaled
    wall seconds.
    """
    active = {workload.name: (workload, workload.steps(tracer))
              for workload in workloads}
    walls = dict.fromkeys(active, 0.0)
    done_steps = dict.fromkeys(active, 0)

    def quota(workload) -> int:
        return units[workload.name] if units else workload.min_units

    def progress(name: str) -> float:
        workload = active[name][0]
        return done_steps[name] / (workload.steps_per_unit
                                   * quota(workload))

    while active:
        name = min(active, key=progress)
        workload, steps = active[name]
        before = workload.units
        workload.step = meter.next_step()
        step_start = time.perf_counter()
        next(steps)
        elapsed = time.perf_counter() - step_start
        walls[name] += elapsed * meter.close(workload.step)
        done_steps[name] += 1
        if between is not None:
            between()
        if workload.units == before or workload.units < quota(workload):
            continue
        if units or name not in primaries or walls[name] >= seconds:
            steps.close()
            del active[name]
    return walls


def check(workload) -> None:
    """Run a workload's reference checks; a crash in one is a failure."""
    try:
        workload.check()
    except Exception:
        workload.fail_exception("reference check")


def end_to_end(workloads, primaries, seconds: float) -> dict:
    """The untraced run: every end-to-end metric, name -> row.

    The workloads are set up ``SETUP_REPEATS`` times (``setup_s`` is
    the median), then measured together, checked and released.
    ``import_ms`` samples are taken between steps, spread over the run.
    """
    from tracing import NullTracer

    meter = Speedometer()
    # Set-up runs on the heap the run starts from (the last one stays).
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setups.append(sum(meter.timed(workload.setup)
                          for workload in workloads))
    gc.collect()
    imports: list[float] = []
    steps = [0]

    def sample_import() -> None:
        step = meter.next_step()
        seconds = import_seconds()
        imports.append(seconds * meter.close(step) * 1000.0)

    def between() -> None:
        steps[0] += 1
        if steps[0] % IMPORT_STRIDE == 0 and len(imports) < IMPORT_SAMPLES:
            sample_import()

    walls = run_steps(workloads, NullTracer(), meter, primaries=primaries,
                      seconds=seconds, between=between)
    while len(imports) < IMPORT_SAMPLES:
        sample_import()
    rows = {}
    for workload in workloads:
        print(f"{workload.name}: {workload.units} unit(s), "
              f"{walls[workload.name]:.2f}s scaled")
        check(workload)
        rows.update(workload.metrics(meter.scale))
        workload.release()
    rows["import_ms"] = (statistics.median(imports), "ms", len(imports))
    rows["setup_s"] = (statistics.median(setups), "s", len(setups))
    rows["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    print(f"speed probe: median {statistics.median(meter.probes) * 1000:.2f}"
          f"ms over {len(meter.probes)} probes (nominal "
          f"{PROBE_NOMINAL_S * 1000:.1f}ms)")
    return rows


def per_layer(workloads, primaries, spec: list, label: str) -> dict:
    """The traced run: the primaries' minimum units and half the others',
    untraced and then again traced; the trace overhead is the ratio of
    the two scaled walls."""
    from tracing import NullTracer, Tracer, self_time_table

    units = {workload.name: workload.min_units if workload.name in primaries
             else max(1, workload.min_units // 2)
             for workload in workloads}
    meter = Speedometer()
    for workload in workloads:
        workload.setup()
    gc.collect()
    untraced = run_steps(workloads, NullTracer(), meter, units=units)
    for workload in workloads:
        check(workload)
        attempted, failed = workload.attempted, workload.failed
        workload.reset()
        workload.attempted, workload.failed = attempted, failed
        workload.setup()
    gc.collect()
    tracer = Tracer()
    with tracer:
        traced = run_steps(workloads, tracer, meter, units=units)
    for workload in workloads:
        check(workload)
        workload.release()
    for workload in workloads:
        print(f"-- {workload.name}: {workload.units} unit(s)")
        print(self_time_table(tracer.layer_times(workload.name)))
    table = tracer.layer_times()
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{label}.json"
    tracer.write_chrome_trace(trace_path)
    print(f"chrome trace: {trace_path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans)")

    values = {}
    for workload in workloads:
        for key, value in workload.layer_counts().items():
            values[key] = values.get(key, 0) + value
    for name, (part, attempts) in RATIOS.items():
        whole = sum(values.get(key, 0) for key in attempts)
        # Nothing attempted reads 0, like a layer never entered.
        values[name] = values.get(part, 0) / whole if whole else 0.0
    for name, row in table.items():
        values[f"{name}.busy_s"] = row["busy_s"]
        values[f"{name}.self_s"] = row["self_s"]
    values.update(tracer.counters)
    values["python.gc_pause_s"] = tracer.gc_pause_s
    values["trace.overhead_share"] = (sum(traced.values())
                                      / sum(untraced.values()))
    # A layer the workload never entered reads 0: predicted flat.
    return {metric["name"]: (values.get(metric["name"], 0),
                             metric["unit"], 1) for metric in spec}


def bootstrap() -> str | None:
    """Put the program's sources on the path and turn ambient faults
    off; returns the ``REPRO_FAULTS`` value that was set, if any."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run "
                         f"from a checkout of the repository")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return os.environ.pop("REPRO_FAULTS", None)


def main(argv=None) -> int:
    faults = bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=13.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    primaries = (WORKLOADS if args.workload == "all"
                 else (args.workload,))
    facts = machine_facts()
    facts["REPRO_FAULTS"] = faults
    print("machine: " + json.dumps(facts, sort_keys=True))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workloads = make_workloads(args.seed)
    if args.trace:
        rows = per_layer(workloads, primaries, benchmark["per_layer"],
                         label)
    else:
        rows = end_to_end(workloads, primaries, args.seconds)

    attempted = sum(workload.attempted for workload in workloads)
    failed = sum(workload.failed for workload in workloads)
    print(f"{'metric':34} {'value':>14} {'unit':10} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:34} {value:>14.6g} {unit:10} {samples}")
    print(f"{'ops_failed_share':34} {failed / attempted:>14.6g} "
          f"{'ratio':10} {attempted}")
    names = [metric["name"] for metric in benchmark[
        "per_layer" if args.trace else "end_to_end"]]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": rows[name][0],
                                 "unit": rows[name][1]}
                          for name in names}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"run-{label}.json").write_text(json.dumps(
        {"machine": facts, "result": result,
         "samples": {name: row[2] for name, row in rows.items()}},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
