"""The one cache class: a bounded LRU whose entries carry a stamp.

Every compile, plan and result cache of the package is a
:class:`StampedLRU` — the engine's text and shape levels, the executor's
statement and shape plan levels, the optimizer's decision memo, the
service's result entries and the SPIMI postings cache.  A *stamp* is
what an entry was computed from: the versions of the tables it read
(:meth:`~repro.relational.database.Database.versions`), or ``None``
where nothing it holds depends on table data.  An entry answers only at
the stamp it was stored under, so a write never serves what was derived
before it and costs nothing to the entries of the tables it missed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, List, Tuple

__all__ = ["StampedLRU"]


class StampedLRU:
    """At most *capacity* entries, each answering only at its stamp.

    :meth:`get` finds an entry stored at another stamp stale: it is
    dropped and the lookup misses.  A hit makes its entry the most
    recently used and :meth:`put` evicts the least recently used.
    Values are never ``None`` (``None`` is the miss).  The lock is a
    leaf: nothing but the map's own operations runs while it is held.
    """

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # key -> (stamp, value), least recently used first
        self._entries: "OrderedDict[Hashable, Tuple[Hashable, Any]]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    def get(self, key: Hashable, stamp: Hashable = None) -> Any:
        """*key*'s value if it was stored at *stamp*, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            if entry[0] != stamp:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: Hashable, value: Any, stamp: Hashable = None) -> None:
        """Store *value* at *stamp* as the most recently used entry."""
        with self._lock:
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        """Drop *key*'s entry, if any."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def items(self) -> List[Tuple[Hashable, Any]]:
        """``(key, value)`` of every entry, least recently used first,
        whatever its stamp; recency is left as it was."""
        with self._lock:
            return [(key, entry[1]) for key, entry in self._entries.items()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
