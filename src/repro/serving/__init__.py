"""Serving: the multi-tenant session engine over compiled caches.

The operational form of the paper's transportability story: admission
by negotiation, automatic adaptation of ``playable-with-filtering``
documents through the compiled adaptation pipeline, and concurrent
replay of many tenants' sessions through shared schedule/program/
adaptation caches.  See :mod:`repro.serving.engine` for the layer map.
"""

from repro._lazy import export_table

__all__ = export_table(__name__, {
    ".engine": ("EnvironmentStats", "PLAYER_CACHE_CAPACITY", "ServingReport",
                "SessionEngine"),
    ".runqueue": ("BLOCKED_ON_CHOICE", "BatchTask", "DONE",
                  "InteractiveSession", "QueueStats", "RUNNING", "RunQueue",
                  "SEEKING", "SESSION_STATES", "ScriptedChoices"),
    ".session": ("SESSION_SEED_STRIDE", "Session"),
})
