"""Timing: the synchronization semantics of CMIF (paper section 5.3).

Turns a compiled document into a constraint system (default tree arcs,
channel serialization, explicit arcs), solves it for the ASAP schedule,
and diagnoses the paper's three conflict classes.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".conflicts": ("AUTHORING", "ConflictReport", "DEVICE", "NAVIGATION",
                   "common_ancestor_of_arc", "detect_device_conflicts",
                   "diagnose_authoring", "invalid_arcs_after_seek"),
    ".constraints": ("Constraint", "ConstraintDelta", "ConstraintIndex",
                     "ConstraintKind", "ConstraintSystem", "TimeVar",
                     "VarKind", "add_arc_delta", "anchor_var", "arc_table",
                     "begin_var", "build_constraints", "end_var",
                     "remove_arc_delta", "retime_delta"),
    ".graph": ("ConstraintGraph", "compile_graph", "solve_graph"),
    ".incremental": ("EngineStats", "IncrementalScheduler"),
    ".intervals": ("Window", "arc_window"),
    ".schedule": ("ENGINE_GRAPH", "ENGINE_REFERENCE", "SCHEDULE_ENGINES",
                  "Schedule", "ScheduleCache", "ScheduledEvent", "event_order",
                  "make_schedule", "schedule_document", "schedule_for",
                  "wrap_event"),
    ".solver": ("CLEANUP_ALGORITHMS", "CLEANUP_FIFO", "CLEANUP_RANKED",
                "IncrementalOutcome", "IncrementalSolver",
                "RELAXATION_POLICIES", "RELAX_DROP_LAST", "RELAX_DROP_WIDEST",
                "SolverResult", "check_solution", "solve"),
    "repro.core.timebase": ("DEFAULT_TIMEBASE", "MediaTime", "TimeBase",
                            "Unit", "times_close"),
})
