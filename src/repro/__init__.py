"""CMIF: the CWI Multimedia Interchange Format, reproduced in Python.

A full reimplementation of "A Structure for Transportable, Dynamic
Multimedia Documents" (Bulterman, van Rossum, van Liere — USENIX 1991):
the CMIF document structure, its synchronization semantics, and the
five-stage CWI/Multimedia Pipeline that surrounds it.

Quick start::

    from repro import DocumentBuilder, schedule_document

    builder = DocumentBuilder("demo")
    builder.channel("video", "video")
    builder.channel("caption", "text")
    with builder.par("scene"):
        builder.imm("clip", channel="video", data="...", duration=4000)
        builder.imm("text", channel="caption", data="Hello")
    document = builder.build()
    schedule = schedule_document(document.compile())

Subpackages:

* :mod:`repro.core` — the document model (trees, attributes, channels,
  styles, descriptors, synchronization arcs);
* :mod:`repro.timing` — constraint building, the scheduling solver, and
  conflict diagnosis;
* :mod:`repro.format` — the human-readable text form and JSON;
* :mod:`repro.pipeline` — the five pipeline stages (capture, structure
  mapping, presentation mapping, constraint filtering, viewing/playing);
* :mod:`repro.media` — synthetic media substrate;
* :mod:`repro.store` — the attribute-indexed data store (DDBMS);
* :mod:`repro.transport` — environments, negotiation, packaging;
* :mod:`repro.corpus` — the Evening News and synthetic corpora;
* :mod:`repro.serving` — the multi-tenant session engine (admission by
  negotiation, compiled adaptation, shared-cache batch replay).
"""

from repro._lazy import export_table

__version__ = "1.0.0"

__all__ = export_table(__name__, {
    ".core": ("Anchor", "ChannelDictionary", "CmifDocument", "CmifError",
              "DataBlock", "DataDescriptor", "DocumentBuilder",
              "EventDescriptor", "MediaTime", "Medium", "NodeKind",
              "SchedulingConflict", "Strictness", "StyleDictionary", "SyncArc",
              "TimeBase", "Unit", "validate_document"),
    ".format": ("document_from_json", "document_to_json", "parse_document",
                "write_document"),
    ".pipeline": ("CaptureSession", "ConstraintFilter", "Player",
                  "PresentationMapper", "StructureMapper", "run_pipeline"),
    ".serving": ("SessionEngine",),
    ".store": ("DataStore",),
    ".timing": ("Schedule", "schedule_document"),
    ".transport": ("SystemEnvironment", "negotiate", "pack", "unpack"),
})
