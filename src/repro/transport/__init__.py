"""Transport: environments, negotiation and document packaging.

Implements the paper's transportability story: capability descriptions
of target systems, the can-this-system-play-this-document determination,
and the two document transport modes (structure-only, self-contained).
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".environments": ("LatencyMap", "PERSONAL_SYSTEM", "PROFILES",
                      "SILENT_TERMINAL", "SystemEnvironment", "WORKSTATION"),
    ".negotiate": ("FILTERABLE", "Finding", "NegotiationResult", "PLAYABLE",
                   "UNPLAYABLE", "document_requirements", "negotiate"),
    ".package": ("PACKAGE_VERSION", "UnpackResult", "externals_to_immediates",
                 "pack", "unpack"),
    ".requirements": ("DescriptorDemand", "DocumentRequirements",
                      "EnvironmentPlan", "PlannedAdaptation",
                      "RequirementsCache", "requirements_for"),
})
