"""Counter arithmetic, written once: snapshot, delta, merge, reset.

The stats and report types (per-environment serving rows, the fault
ledger, federation traffic, store access counts, ingest reports)
declare their counters as dataclass fields and inherit the arithmetic
from :class:`Counters`.  What each field does is read off its value:

* a number — a counter: deltas subtract, merges add;
* a ``dict`` — one counter per key: merges add key-wise, deltas keep
  only the keys whose count moved (counts only grow, so every key of an
  earlier snapshot is still present);
* a nested :class:`Counters` — the same arithmetic, recursively;
* a ``list`` — an append-only log: merges concatenate, deltas keep
  what was appended since the snapshot;
* anything else (a ``str`` name, a cache object, ``None``) — a label:
  kept from ``self``, never summed, untouched by :meth:`reset`.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, fields


def _is_label(value) -> bool:
    return not isinstance(value, (numbers.Number, dict, list, Counters))


def _copy(value):
    if isinstance(value, Counters):
        return value.snapshot()
    if isinstance(value, (dict, list)):
        return type(value)(value)
    return value


def _minus(after, before):
    if isinstance(after, Counters):
        return after.delta_since(before)
    if isinstance(after, dict):
        return {key: count - before.get(key, 0)
                for key, count in after.items()
                if count != before.get(key, 0)}
    if isinstance(after, list):
        return after[len(before):]
    if isinstance(after, numbers.Number):
        return after - before
    return after


def _moved(value) -> bool:
    if isinstance(value, dict):
        return any(_moved(item) for item in value.values())
    return bool(value)


def _plus(mine, theirs):
    if isinstance(mine, Counters):
        mine.merge(theirs)
    elif isinstance(mine, dict):
        for key, count in theirs.items():
            mine[key] = mine.get(key, 0) + count
    elif isinstance(mine, list):
        mine.extend(theirs)
    elif isinstance(mine, numbers.Number):
        return mine + theirs
    return mine


class Counters:
    """Mixin for dataclasses of counters (see the module docstring)."""

    def snapshot(self):
        """A value copy, for later :meth:`delta_since` accounting."""
        return type(self)(**{spec.name: _copy(getattr(self, spec.name))
                             for spec in fields(self)})

    def delta_since(self, before=None):
        """These counters minus an earlier snapshot (None = all of them)."""
        if before is None:
            return self.snapshot()
        return type(self)(**{
            spec.name: _minus(getattr(self, spec.name),
                              getattr(before, spec.name))
            for spec in fields(self)})

    def merge(self, other) -> None:
        """Fold ``other``'s counters into these (shard and run merges)."""
        for spec in fields(self):
            setattr(self, spec.name, _plus(getattr(self, spec.name),
                                           getattr(other, spec.name)))

    def reset(self) -> None:
        """Every counter back to its default; labels stay."""
        for spec in fields(self):
            if not _is_label(getattr(self, spec.name)):
                setattr(self, spec.name,
                        spec.default if spec.default_factory is MISSING
                        else spec.default_factory())

    @property
    def empty(self) -> bool:
        """True when no counter has moved from zero."""
        return not any(_moved(value) for value in self.as_dict().values())

    def as_dict(self) -> dict:
        """The counters by field name (nested ones as dicts, no labels)."""
        return {spec.name: (value.as_dict() if isinstance(value, Counters)
                            else _copy(value))
                for spec in fields(self)
                if not _is_label(value := getattr(self, spec.name))}
