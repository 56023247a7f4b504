"""The optional DDBMS of paper figure 2: attribute-indexed block storage.

Documents reference data through descriptors; the store resolves those
references and answers attribute queries without touching payload bytes,
reproducing the paper's section-6 claim about descriptor-driven document
manipulation.  Queries are inspectable ASTs (:mod:`repro.store.query`)
compiled by a planner (:mod:`repro.store.planner`) into index-backed
plans; the federation (:mod:`repro.store.distributed`) routes them only
to the sites whose index summaries can match.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".datastore": ("DataStore", "StoreStats", "StoreSummary"),
    ".distributed": ("DESCRIPTOR_WIRE_BYTES", "FederatedStore", "FindOutcome",
                     "NetworkModel", "Site", "SiteUnavailable", "TrafficStats",
                     "summary_can_match", "summary_wire_bytes"),
    ".placement": ("HotSetTracker", "HybridPolicy", "MigrateOwnerPolicy",
                   "PLACEMENT_POLICIES", "PlacementMove", "PlacementOutcome",
                   "PlacementPolicy", "PlacementReport", "ReplicateHotPolicy",
                   "ReplicationPlan", "SiteTopology", "resolve_policy"),
    ".planner": ("IndexStep", "Plan", "build_plan", "execute_plan"),
    ".query": ("Always", "And", "Contains", "DurationBetween", "Eq",
               "MatchesAttr", "MediumIs", "Not", "Or", "Query", "Range",
               "always", "attr_contains", "attr_eq", "attr_range",
               "criteria_query", "duration_between", "iter_leaves", "keyword",
               "medium_is", "run"),
})
