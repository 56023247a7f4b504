"""Deterministic fault injection and recovery (see ARCHITECTURE.md).

The injection side (:class:`FaultPlan`, :class:`FaultClock`) is a
seeded, order-independent description of what fails; the recovery side
(:class:`RetryPolicy`, :class:`CircuitBreaker`, :func:`run_shards`,
:class:`RobustnessStats`) is how the store, federation, ingest, and
serving layers survive it — and the ledger proving they did.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".plan": ("FAULTS_ENV", "FaultClock", "FaultInjected", "FaultPlan",
              "STANDARD_PLAN_SPEC", "corrupt_block", "parse_fault_plan",
              "resolve_faults"),
    ".recovery": ("CircuitBreaker", "RetryPolicy", "RobustnessStats",
                  "WORKER_CRASH_EXIT", "run_shards"),
})
