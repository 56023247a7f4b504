"""Core CMIF document model: trees, attributes, channels, arcs, events.

This package implements the paper's primary contribution — the CMIF
document structure (sections 3 and 5).  The public names re-exported here
form the stable core API; the pipeline, timing, format, store and
transport packages are all built on top of these.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".attributes": ("ALL_NODE_KINDS", "Attribute", "AttributeList",
                    "AttributeSpec", "STANDARD_ATTRIBUTES", "spec_for"),
    ".builder": ("DocumentBuilder",),
    ".channels": ("AURAL_MEDIA", "Channel", "ChannelDictionary", "Medium",
                  "VISUAL_MEDIA"),
    ".descriptors": ("DataBlock", "DataDescriptor", "EventDescriptor",
                     "Slice"),
    ".document": ("CmifDocument", "CompiledDocument"),
    ".edit": ("EditReport", "duplicate", "remove", "reorder", "retime",
              "splice"),
    ".errors": ("AttributeError_", "ChannelError", "CmifError",
                "DeviceConstraintError", "FormatError", "MediaError",
                "NavigationError", "PathError", "PlaybackError", "QueryError",
                "SchedulingConflict", "StoreError", "StructureError",
                "StyleError", "SyncArcError", "TransportError", "ValueError_"),
    ".nodes": ("ContainerNode", "ExtNode", "ImmNode", "Node", "NodeKind",
               "ParNode", "SeqNode", "make_node"),
    ".paths": ("node_path", "relative_path", "resolve_path"),
    ".styles": ("StyleDictionary",),
    ".syncarc": ("Anchor", "ConditionalArc", "Strictness", "SyncArc", "ZERO"),
    ".timebase": ("DEFAULT_TIMEBASE", "MediaTime", "TIME_EPSILON_MS",
                  "TimeBase", "Unit", "times_close"),
    ".tree": ("TreeStats", "common_ancestor", "find_named", "find_nodes",
              "iter_leaves", "iter_postorder", "iter_preorder", "precedes",
              "subtree_of", "tree_stats"),
    ".validate": ("ERROR", "ValidationIssue", "WARNING", "validate_document"),
    ".values": ("Rect", "ValueKind"),
})
