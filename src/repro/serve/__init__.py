"""Analytics service layer: the paper's serving story made runnable.

The paper frames large-scale geospatial analytics as a *serving*
problem — KDV-Explorer-style front-ends where millions of users pan and
zoom over shared datasets while new events stream in.  This package is
that layer over the library's tools:

* :class:`AnalyticsService` — the transport-free core: datasets
  (:class:`DatasetStore`), an LRU tile-pyramid cache invalidated
  tile-exactly by the maintained surfaces' sync reports, a
  query-result cache keyed by dataset content, request coalescing
  (identical concurrent queries execute once), bounded admission, and
  per-request traces feeding a ``/stats`` snapshot.
* :func:`create_server` — an :mod:`http.server` front-end exposing
  tiles, queries, ingest and stats over JSON (plus PPM tiles for eyes).
* ``repro serve`` — the CLI entry point that boots the above.

Everything rides the unified Request/Plan/Execute API of
:mod:`repro.core.request`: a wire dict becomes an
:class:`~repro.core.request.AnalyticsRequest`, its canonical fingerprint
keys the caches and the coalescer, and execution goes through the same
:func:`~repro.core.request.execute_request` path library callers use.
"""

from .cache import LRUCache
from .coalesce import Coalescer
from .datasets import Dataset, DatasetStore
from .frontend import ReproRequestHandler, create_server
from .service import AnalyticsService, ServeConfig, TileResult
from .stats import ServeStats
from .surfaces import MaintainedSurface

__all__ = [
    "AnalyticsService",
    "Coalescer",
    "Dataset",
    "DatasetStore",
    "LRUCache",
    "MaintainedSurface",
    "ReproRequestHandler",
    "ServeConfig",
    "ServeStats",
    "TileResult",
    "create_server",
]
