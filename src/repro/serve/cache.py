"""Thread-safe LRU cache for tiles and query results.

One generic cache class serves both of the server's caches (the tile
pyramid cache and the query-result cache) so eviction, invalidation and
accounting behave identically everywhere.  Values are treated as
immutable by convention — the service caches frozen results
(:class:`~repro.raster.DensityGrid` tile arrays, summary dicts) and
never mutates what it put in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

from ..errors import ParameterError

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and hit accounting.

    ``get`` refreshes recency; ``put`` evicts the stalest entry once
    ``capacity`` is exceeded.  :meth:`invalidate` supports both exact-key
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
        self._data: OrderedDict[Hashable, object] = OrderedDict()
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
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry, evicting the LRU tail past capacity."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
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
            if predicate is None:
                removed = 1 if self._data.pop(key, _MISSING) is not _MISSING else 0
            else:
                doomed = [k for k in self._data if predicate(k)]
                for k in doomed:
                    del self._data[k]
                removed = len(doomed)
            self.invalidations += removed
            return removed

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            n = len(self._data)
            self._data.clear()
            self.invalidations += n
            return n

    def stats(self) -> dict:
        """Point-in-time accounting: size, hits, misses, evictions."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
