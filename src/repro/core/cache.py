"""One cache discipline for everything derived from a document revision.

The serving stack caches requirement profiles, schedules, playback,
adapted and navigation programs, batch players and stream-id sets, all
under the same rules, written here once:

* an entry is keyed ``(id(owner), revision, slot)``: the owner is what
  the value was derived from (a document, a schedule, a program), the
  revision is read off the owner's document at lookup time, and the
  slot names what was derived (solve parameters, an environment
  fingerprint, a derived tag);
* each entry pins its owner, so ``id()`` reuse is impossible; an
  owner whose :meth:`~RevisionCache.document_of` is ``None`` keys its
  entries by identity alone, with no revision to supersede;
* storing under a document's new revision drops its superseded
  revisions' entries, found through a per-document key index;
* the table is LRU-bounded, and lookups count ``hits`` and ``misses``.

Cached values are never ``None``; a lookup returns ``None`` on a miss.
"""

from __future__ import annotations

import collections

from repro.core.errors import ValueError_


class LRU(collections.OrderedDict):
    """A table of at most ``capacity`` entries, least recently used
    out first.  A hit is one dict probe plus ``move_to_end``."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity <= 0:
            raise ValueError_(f"cache capacity must be positive, "
                              f"got {capacity}")
        self.capacity = capacity

    def __reduce__(self):
        return type(self), (self.capacity,), None, None, iter(self.items())

    def hit(self, key):
        """The value under ``key``, made most recent; ``None`` if absent."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def add(self, key, value) -> list:
        """Store ``value`` as the most recent entry; return the
        ``(key, value)`` pairs evicted to stay within capacity."""
        self[key] = value
        self.move_to_end(key)
        evicted = []
        while len(self) > self.capacity:
            evicted.append(self.popitem(last=False))
        return evicted


class RevisionCache:
    """Values derived from an owner at its document's current revision.

    Subclasses name the cache (:attr:`label`) and, when the owner is not
    itself the document, say where its document is (:meth:`document_of`).
    """

    #: What :meth:`describe` calls this cache.
    label = "cache"

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: key -> (owner, value)
        self._entries = LRU(capacity)
        #: id(document) -> that document's live keys.
        self._by_document: dict[int, set] = {}

    @staticmethod
    def document_of(owner):
        """The document whose revision keys ``owner``'s entries, or
        ``None`` to key them by the owner's identity alone."""
        return owner

    def _key(self, owner, slot) -> tuple:
        document = self.document_of(owner)
        return (id(owner), None if document is None else document.revision,
                slot)

    def __contains__(self, owner) -> bool:
        """Whether ``owner``'s slot-``None`` value is cached (a peek:
        nothing is counted or reordered)."""
        return self._key(owner, None) in self._entries

    def lookup(self, owner, slot=None):
        """The cached value, counting a hit or a miss."""
        entry = self._entries.hit(self._key(owner, slot))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def store(self, owner, slot, value) -> None:
        """Cache ``value`` under the owner's current revision, dropping
        the document's entries at every other revision."""
        key = self._key(owner, slot)
        document = self.document_of(owner)
        if document is not None:
            keys = self._by_document.setdefault(id(document), set())
            for stale in [old for old in keys if old[1] != key[1]]:
                keys.discard(stale)
                del self._entries[stale]
            keys.add(key)
        for evicted, (evicted_owner, _) in self._entries.add(
                key, (owner, value)):
            self._unindex(evicted_owner, evicted)

    #: Re-insert a :meth:`take`-n value under its successor owner.
    restore = store

    def get_or_build(self, owner, slot, build):
        """The cached value, or ``build()`` stored on a miss."""
        value = self.lookup(owner, slot)
        if value is None:
            value = build()
            self.store(owner, slot, value)
        return value

    def take(self, owner) -> dict:
        """Remove and return, by slot, every entry pinned to ``owner``
        at any revision.  The live-edit patcher takes a superseded
        schedule's programs, patches them in place and restores them
        under the successor: the only way an entry outlives an edit."""
        keys = self._by_document.get(id(self.document_of(owner)), ())
        taken = {}
        for key in [key for key in keys if key[0] == id(owner)]:
            taken[key[2]] = self._entries.pop(key)[1]
            self._unindex(owner, key)
        return taken

    def _unindex(self, owner, key) -> None:
        document = self.document_of(owner)
        if document is None:
            return
        keys = self._by_document[id(document)]
        keys.discard(key)
        if not keys:
            del self._by_document[id(document)]

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._by_document.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> str:
        return (f"{self.label}: {len(self._entries)} entr(y/ies), "
                f"{self.hits} hit(s), {self.misses} miss(es)")


__all__ = ["LRU", "RevisionCache"]
