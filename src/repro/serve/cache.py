"""Thread-safe LRU cache for tiles and query results.

One generic cache class serves both of the server's caches (the tile
pyramid cache and the query-result cache) so eviction, invalidation and
accounting behave identically everywhere.  Each entry has a size, 1
unless :meth:`LRUCache.put` is given one, and ``capacity`` bounds the
sum: the result cache counts entries, the tile cache counts the bytes
of the bodies it holds.  Values are treated as immutable by convention
— the service caches frozen results (encoded tile bodies, summary
dicts) and never mutates what it put in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from ..errors import ParameterError

__all__ = ["LRUCache"]


class LRUCache:
    """Size-bounded mapping with least-recently-used eviction and hit accounting.

    ``get`` refreshes recency; ``put`` evicts the stalest entries while
    the sizes held exceed ``capacity``, and keeps no entry larger than
    ``capacity`` itself.  :meth:`invalidate` supports both exact-key
    removal and predicate sweeps — the hook ingest invalidation drives
    (evict exactly the tiles that changed, keep the rest).
    """

    def __init__(self, capacity: int):
        capacity = int(capacity)
        if capacity < 1:
            raise ParameterError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (value, size), least recently used first.
        self._data: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self.held = 0   # sum of the entries' sizes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default=None):
        """The cached value (refreshing its recency), else ``default``."""
        with self._lock:
            item = self._data.get(key)
            if item is None:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return item[0]

    def peek(self, key: Hashable, default=None):
        """The cached value, else ``default``; recency and counts stay."""
        with self._lock:
            item = self._data.get(key)
            return default if item is None else item[0]

    def put(self, key: Hashable, value, size: int = 1) -> None:
        """Insert/replace an entry of ``size``, evicting the LRU tail past capacity.

        An entry larger than the whole capacity is not kept; any older
        entry under its key is dropped all the same.
        """
        size = int(size)
        if size < 0:
            raise ParameterError(f"entry size must be >= 0, got {size}")
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self.held -= old[1]
            if size > self.capacity:
                return
            self._data[key] = (value, size)
            self.held += size
            while self.held > self.capacity:
                _, (_, evicted) = self._data.popitem(last=False)
                self.held -= evicted
                self.evictions += 1

    def invalidate(self, key: Hashable = None,
                   predicate: Callable[[Hashable], bool] | None = None) -> int:
        """Drop entries; returns how many were removed.

        With ``key``, removes that entry if present.  With ``predicate``,
        removes every entry whose key satisfies it (how dirty-tile
        invalidation sweeps one dataset's changed tiles without touching
        the rest of the pyramid).  Exactly one of the two must be given.
        """
        if (key is None) == (predicate is None):
            raise ParameterError(
                "invalidate takes exactly one of key/predicate"
            )
        with self._lock:
            doomed = [key] if predicate is None else [
                k for k in self._data if predicate(k)
            ]
            removed = 0
            for k in doomed:
                item = self._data.pop(k, None)
                if item is not None:
                    self.held -= item[1]
                    removed += 1
            self.invalidations += removed
            return removed

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            n = len(self._data)
            self._data.clear()
            self.held = 0
            self.invalidations += n
            return n

    def stats(self) -> dict:
        """Point-in-time accounting: entries, sizes held, hits, misses, evictions."""
        with self._lock:
            return {
                "size": len(self._data),
                "held": self.held,
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
