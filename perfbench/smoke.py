"""Tiny-scale smoke test of the benchmark itself.

Runs every workload at a few documents and sessions, untraced and
traced, and checks that:

* every metric ``BENCHMARK.json`` names is emitted with its unit, and
  every end-to-end value is a positive number;
* the deterministic counts repeat exactly for the same seed;
* no operation failed and every output matched its reference.

Run from the root of the repository with either of::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

DETERMINISTIC_E2E = ("fed_fetch_ms_per_session", "fed_bytes_per_session")
DETERMINISTIC_LAYER = ("pipeline.patch.patched_share",
                       "timing.incremental_share")


def tiny_workloads(seed: int, directory: Path) -> list:
    from workloads import ColdOpen, FederatedZipf, HotFleet

    return [
        ColdOpen(seed, directory / "cold-open", documents=6,
                 min_events=20, max_events=80, checked_documents=2,
                 min_units=1),
        HotFleet(seed, documents=2, events=30, batch=2, interactive=1,
                 rounds=3, edits=8, min_units=2),
        FederatedZipf(seed, sessions=60, documents=4, rebalance_every=20,
                      min_units=2),
    ]


def run_tiny(benchmark: dict, seed: int, directory: Path, *,
             trace: bool) -> dict:
    workloads = tiny_workloads(seed, directory)
    names = [workload.name for workload in workloads]
    if trace:
        rows = run.per_layer(workloads, names, benchmark["per_layer"],
                             f"smoke-seed{seed}")
    else:
        rows = run.end_to_end(workloads, names, 0.0)
    failed = sum(workload.failed for workload in workloads)
    assert failed == 0, f"{failed} operation(s) failed"
    assert sum(workload.attempted for workload in workloads) > 0
    return rows


def assert_emitted(rows: dict, spec: list, *, positive: bool) -> None:
    for metric in spec:
        assert metric["name"] in rows, f"{metric['name']} not emitted"
        value, unit, _ = rows[metric["name"]]
        assert unit == metric["unit"], (metric["name"], unit)
        assert isinstance(value, (int, float)), (metric["name"], value)
        if positive:
            assert value > 0, f"{metric['name']} reads {value}"


def test_every_metric_emitted_and_deterministic_counts_repeat():
    run.bootstrap()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as temporary:
        directory = Path(temporary)
        first = run_tiny(benchmark, 3, directory, trace=False)
        again = run_tiny(benchmark, 3, directory, trace=False)
        assert_emitted(first, benchmark["end_to_end"], positive=True)
        for name in DETERMINISTIC_E2E:
            assert first[name][0] == again[name][0], name

        traced = run_tiny(benchmark, 3, directory, trace=True)
        traced_again = run_tiny(benchmark, 3, directory, trace=True)
        assert_emitted(traced, benchmark["per_layer"], positive=False)
        for name in DETERMINISTIC_LAYER:
            assert traced[name][0] == traced_again[name][0], name
        assert traced["pipeline.run_one.calls"][0] > 0
        assert traced["store.stream.calls"][0] > 0


if __name__ == "__main__":
    test_every_metric_emitted_and_deterministic_counts_repeat()
    print("perfbench smoke: ok")
