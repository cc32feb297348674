"""The analytics service: request in, cached/coalesced/planned result out.

:class:`AnalyticsService` is the transport-free core of the server —
everything the HTTP front-end does is a thin translation onto these
methods, and the test suite exercises them directly (no sockets needed):

* :meth:`tile` — cached KDV pyramid tiles.  One cache entry per tile
  holds the forms it was asked for: the :class:`TileResult` library
  callers get, and the HTTP front-end's encoded bodies (a hit sends the
  cached bytes).  The cache is bounded in bytes.  Its keys carry the
  dataset *identity* (stable across ingests), so invalidation is driven
  by the maintained surfaces' sync reports: an ingest evicts exactly the
  tiles whose pixels changed, every form of each, and leaves the rest
  of the pyramid warm.
* :meth:`query` — full analytics through the unified
  :func:`~repro.core.request.execute_request` path.  Result-cache keys
  carry the dataset *content fingerprint*, so an ingest implicitly
  retires every stale result.
* Both paths coalesce: concurrent identical requests (same canonical
  fingerprint, same dataset state) execute once and fan the result out.
* Every executed request runs under its own :mod:`repro.obs` collector;
  latency, hit/coalesce counters and queue depth land in
  :meth:`stats_snapshot` (the ``/stats`` payload).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from .. import obs, parallel
from ..core.kfunction import KFunctionPlot
from ..core.pipeline import HotspotReport
from ..core.request import (
    AnalyticsRequest,
    execute_request,
    plan_request,
    request_from_dict,
)
from ..errors import ParameterError
from ..raster import DensityGrid
from .cache import LRUCache
from .coalesce import Coalescer
from .datasets import DatasetStore
from .stats import ServeStats
from .surfaces import MaintainedSurface

__all__ = ["AnalyticsService", "ServeConfig", "TileResult"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunable knobs of one :class:`AnalyticsService`.

    ``tile_px`` and ``max_zoom`` fix the pyramid geometry (a zoom-``z``
    surface is ``tile_px * 2**z`` pixels square).  ``max_inflight``
    bounds concurrently *executing* requests (``None`` → twice the
    resolved worker count, floor 4); excess requests queue on the
    admission semaphore and show up in the ``queue.depth`` gauge.
    ``tile_cache_bytes`` bounds the tile cache by the bytes it holds:
    encoded bodies, and the values of tiles :meth:`AnalyticsService.tile`
    returned as :class:`TileResult`.
    """

    tile_px: int = 64
    max_zoom: int = 4
    tile_cache_bytes: int = 12 * 2**20
    result_cache_capacity: int = 128
    latency_window: int = 1024
    max_inflight: int | None = None
    workers: int | None = None

    def resolve_inflight(self) -> int:
        """The admission-semaphore size this config means."""
        if self.max_inflight is not None:
            slots = int(self.max_inflight)
            if slots < 1:
                raise ParameterError(
                    f"max_inflight must be positive, got {self.max_inflight}"
                )
            return slots
        return max(4, 2 * parallel.resolve_workers(self.workers))


@dataclass(frozen=True)
class TileResult:
    """One served tile: addressing, geometry, density values, provenance."""

    dataset: str
    version: int
    zoom: int
    tx: int
    ty: int
    bandwidth: float
    kernel: str
    bbox: tuple[float, float, float, float]
    values: np.ndarray

    def to_payload(self) -> dict:
        """JSON-safe wire form (values nested x-major, north not flipped)."""
        return {
            "dataset": self.dataset,
            "version": self.version,
            "zoom": self.zoom,
            "tx": self.tx,
            "ty": self.ty,
            "bandwidth": self.bandwidth,
            "kernel": self.kernel,
            "bbox": list(self.bbox),
            "shape": list(self.values.shape),
            "values": self.values.tolist(),
        }


#: The cache-entry form of a tile that :meth:`AnalyticsService.tile`
#: returns as a :class:`TileResult`.
_RESULT = "result"


def _entry_bytes(entry: dict) -> int:
    """Bytes one tile's cache entry holds: its bodies and result values."""
    return sum(
        value.values.nbytes if isinstance(value, TileResult) else len(value)
        for value in entry.values()
    )


def _tile_dtype(dtype) -> str:
    """The canonical name of a tile dtype: ``"float64"`` or ``"float32"``."""
    try:
        name = np.dtype(dtype).name
    except (TypeError, SyntaxError):  # NumPy's parser raises both
        name = None
    if name not in ("float64", "float32"):
        raise ParameterError(
            f"tile dtype must be float64 or float32, got {dtype!r}"
        )
    return name


class _Admission:
    """Bounded-concurrency gate that reports queueing pressure as gauges."""

    def __init__(self, stats: ServeStats, slots: int):
        self._sem = threading.BoundedSemaphore(slots)
        self._stats = stats
        self.slots = slots

    def __enter__(self) -> "_Admission":
        self._stats.adjust_gauge("queue.depth", 1)
        self._sem.acquire()
        self._stats.adjust_gauge("queue.depth", -1)
        self._stats.adjust_gauge("inflight", 1)
        return self

    def __exit__(self, *exc) -> bool:
        self._stats.adjust_gauge("inflight", -1)
        self._sem.release()
        return False


class AnalyticsService:
    """Coalescing, caching front door over the Request/Plan/Execute API."""

    def __init__(self, store: DatasetStore | None = None,
                 config: ServeConfig | None = None):
        self.config = config if config is not None else ServeConfig()
        self.store = store if store is not None else DatasetStore()
        self.stats = ServeStats(latency_window=self.config.latency_window)
        self.tile_cache = LRUCache(self.config.tile_cache_bytes)
        self._tile_lock = threading.Lock()
        self.result_cache = LRUCache(self.config.result_cache_capacity)
        self.coalescer = Coalescer()
        self._admission = _Admission(self.stats, self.config.resolve_inflight())
        self._surfaces: dict[tuple, MaintainedSurface] = {}
        self._surfaces_lock = threading.Lock()

    # -- datasets ----------------------------------------------------------

    def create_dataset(self, name: str, points, times=None, bbox=None,
                       margin: float = 0.05) -> dict:
        """Register a dataset; returns its summary row."""
        dataset = self.store.create(
            name, points, times=times, bbox=bbox, margin=margin
        )
        self.stats.incr("datasets.created")
        return dataset.summary()

    def datasets(self) -> list[dict]:
        """Summary rows of every registered dataset."""
        return self.store.summaries()

    def ingest(self, name: str, points, times=None) -> dict:
        """Append a batch to a dataset and invalidate exactly what changed.

        Every maintained surface of the dataset is brought current; the
        union of their dirty tiles is evicted from the tile cache by
        exact key.  Query results are not touched — their keys carry the
        content fingerprint, which this ingest just advanced, so stale
        entries can never be served again and simply age out.
        """
        with self._admission, obs.Stopwatch() as sw:
            dataset = self.store.get(name)
            added = dataset.ingest(points, times=times)
            invalidated = sum(
                self._evict_tiles(key, surface.sync(dataset))
                for key, surface in self._surfaces_for(dataset.identity)
            )
            self.stats.incr("ingest.batches")
            self.stats.incr("ingest.events", added)
            self.stats.incr("tile.invalidated", invalidated)
        self.stats.observe_latency("ingest", sw.seconds)
        return {
            "dataset": name,
            "added": added,
            "version": dataset.version,
            "content": dataset.content_fingerprint(),
            "invalidated_tiles": invalidated,
        }

    # -- tiles -------------------------------------------------------------

    def _surfaces_for(self, identity: str
                      ) -> list[tuple[tuple, MaintainedSurface]]:
        with self._surfaces_lock:
            return [
                (key, surf) for key, surf in self._surfaces.items()
                if key[0] == identity
            ]

    def _surface(self, dataset, zoom: int, bandwidth: float, kernel: str,
                 dtype: str) -> MaintainedSurface:
        key = (dataset.identity, zoom, bandwidth, kernel, dtype)
        with self._surfaces_lock:
            surface = self._surfaces.get(key)
            if surface is None:
                surface = MaintainedSurface(
                    dataset, zoom, bandwidth, kernel=kernel,
                    tile_px=self.config.tile_px,
                    dtype=np.dtype(dtype),
                )
                self._surfaces[key] = surface
                self.stats.incr("surfaces.created")
        return surface

    def tile(self, name: str, zoom: int, tx: int, ty: int,
             bandwidth: float, kernel: str = "quartic",
             dtype: str | None = None, *, fmt: Hashable = None,
             encode: Callable[[TileResult], bytes] | None = None
             ) -> TileResult | bytes:
        """One pyramid tile, served from cache when its pixels are current.

        Every NumPy spelling of float64 (the default, ``None``) or float32
        keys one surface and one cache entry per tile.  The entry holds
        each form of the tile asked for: the :class:`TileResult` this
        returns by default, and any encoded body.  Given ``fmt`` (the
        body's name, e.g. ``"json"`` or ``("ppm", colormap)``) and
        ``encode``, the tile comes back as that body instead: a miss
        encodes a freshly sliced :class:`TileResult` and caches only the
        bytes.
        """
        if (fmt is None) != (encode is None):
            raise ParameterError("tile takes both of fmt/encode or neither")
        dtype = _tile_dtype(dtype)
        zoom = int(zoom)
        if not (0 <= zoom <= self.config.max_zoom):
            raise ParameterError(
                f"zoom must lie in [0, {self.config.max_zoom}], got {zoom}"
            )
        bandwidth = float(bandwidth)
        if bandwidth <= 0.0:
            raise ParameterError(
                f"bandwidth must be positive, got {bandwidth}"
            )
        tx = int(tx)
        ty = int(ty)
        if fmt is None:
            fmt, encode = _RESULT, lambda result: result
        with self._admission, obs.Stopwatch() as sw:
            dataset = self.store.get(name)
            key = ("tile", dataset.identity, zoom, tx, ty, bandwidth, kernel,
                   dtype)
            value = self.tile_cache.get(key, {}).get(fmt)
            if value is not None:
                self.stats.incr("tile.cache_hit")
            else:
                self.stats.incr("tile.cache_miss")
                version = dataset.version
                value, led = self.coalescer.run(
                    (key, fmt),
                    lambda: encode(self._compute_tile(
                        dataset, zoom, tx, ty, bandwidth, kernel, dtype
                    )),
                )
                if led:
                    self._cache_tile(dataset, version, key, fmt, value)
                    self.stats.incr("tile.computed")
                else:
                    self.stats.incr("coalesce.waited")
        self.stats.incr("requests.total")
        self.stats.observe_latency("tile", sw.seconds)
        return value

    def _cache_tile(self, dataset, version: int, key: tuple, fmt: Hashable,
                    value) -> None:
        """Add one form of a tile to its cache entry.

        A value computed while an ingest landed is not kept: the ingest
        may already have evicted this key.  Eviction and this merge hold
        one lock, so neither loses the other's update.
        """
        with self._tile_lock:
            if dataset.version != version:
                return
            entry = {**self.tile_cache.peek(key, {}), fmt: value}
            self.tile_cache.put(key, entry, size=_entry_bytes(entry))

    def _evict_tiles(self, surface_key: tuple, tiles) -> int:
        """Evict tiles ``(tx, ty)`` of one surface, every form of each."""
        identity, zoom, bandwidth, kernel, dtype = surface_key
        with self._tile_lock:
            return sum(
                self.tile_cache.invalidate(key=(
                    "tile", identity, zoom, tx, ty, bandwidth, kernel, dtype
                ))
                for tx, ty in tiles
            )

    def _compute_tile(self, dataset, zoom: int, tx: int, ty: int,
                      bandwidth: float, kernel: str, dtype: str
                      ) -> TileResult:
        """Cold path: sync the maintained surface, slice the tile out.

        A tile read for the first time is rendered here; each render
        counts in ``surfaces.tiles_rendered`` and its time lands in the
        ``tile.render`` latency ring.
        """
        surface = self._surface(dataset, zoom, bandwidth, kernel, dtype)
        # A sync here means ingests landed since the surface was last
        # read; those tiles' cached entries are stale — evict them.
        self._evict_tiles((dataset.identity, zoom, bandwidth, kernel, dtype),
                          surface.sync(dataset))
        bbox = surface.tile_bbox(tx, ty)
        with obs.Stopwatch() as sw:
            rendered = surface.render(tx, ty)
        if rendered:
            self.stats.incr("surfaces.tiles_rendered")
            self.stats.observe_latency("tile.render", sw.seconds)
        values = surface.tile_values(tx, ty)
        return TileResult(
            dataset=dataset.name, version=dataset.version, zoom=zoom,
            tx=tx, ty=ty, bandwidth=bandwidth, kernel=kernel,
            bbox=(bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax),
            values=values,
        )

    # -- full analytics ----------------------------------------------------

    def query(self, request) -> dict:
        """Execute an analytics request (wire dict or request object).

        The request must name a registered dataset.  Identical concurrent
        queries against identical dataset contents coalesce into one
        execution; repeated queries hit the result cache until an ingest
        advances the content fingerprint.
        """
        if isinstance(request, Mapping):
            request = request_from_dict(request)
        if not isinstance(request, AnalyticsRequest):
            raise ParameterError(
                f"query needs an AnalyticsRequest or its dict form, got "
                f"{type(request).__name__}"
            )
        if not request.dataset:
            raise ParameterError("served requests must name a dataset")
        with self._admission, obs.Stopwatch() as sw:
            dataset = self.store.get(request.dataset)
            key = ("query", dataset.identity, dataset.content_fingerprint(),
                   request.fingerprint())
            payload = self.result_cache.get(key)
            if payload is not None:
                self.stats.incr("query.cache_hit")
            else:
                self.stats.incr("query.cache_miss")
                payload, led = self.coalescer.run(
                    key, lambda: self._execute_query(dataset, request)
                )
                if led:
                    self.result_cache.put(key, payload)
                    self.stats.incr("query.computed")
                else:
                    self.stats.incr("coalesce.waited")
        self.stats.incr("requests.total")
        self.stats.observe_latency(f"query.{request.kind}", sw.seconds)
        return payload

    def _execute_query(self, dataset, request: AnalyticsRequest) -> dict:
        """Cold path: plan, execute under a fresh trace, summarise."""
        points = dataset.points
        plan = plan_request(request, points, bbox=dataset.bbox)
        with obs.enabled() as trace, obs.Stopwatch() as sw:
            result = execute_request(request, points, bbox=dataset.bbox)
        diagnostics = trace.diagnostics()
        payload = _summarize(result)
        payload.update({
            "dataset": dataset.name,
            "version": dataset.version,
            "fingerprint": request.fingerprint(),
            "plan": plan.as_dict(),
            "trace": {
                "seconds": sw.seconds,
                "counters": diagnostics.counters(),
            },
        })
        return payload

    # -- introspection -----------------------------------------------------

    def stats_snapshot(self) -> dict:
        """The ``/stats`` payload: counters, latencies, caches, coalescing."""
        snap = self.stats.snapshot()
        with self._surfaces_lock:
            n_surfaces = len(self._surfaces)
        tile_cache = self.tile_cache.stats()
        tile_cache["bytes"] = tile_cache.pop("held")
        tile_cache["capacity_bytes"] = tile_cache.pop("capacity")
        snap.update({
            "tile_cache": tile_cache,
            "result_cache": self.result_cache.stats(),
            "coalescer": {
                "inflight": self.coalescer.inflight(),
                "executions": self.coalescer.executions,
                "coalesced": self.coalescer.coalesced,
            },
            "surfaces": n_surfaces,
            "max_inflight": self._admission.slots,
            "datasets": self.store.names(),
        })
        return snap


def _summarize(result) -> dict:
    """JSON-safe digest of a native analytics result.

    Full density surfaces are summarised (shape, mass, extrema, a SHA-256
    of the raw values for cache-identity checks) rather than shipped —
    clients wanting pixels use the tile endpoint, which is cached and
    invalidated properly.
    """
    if isinstance(result, DensityGrid):
        values = np.ascontiguousarray(result.values)
        return {
            "kind": "kdv",
            "shape": list(values.shape),
            "total": float(values.sum()),
            "max": float(values.max()),
            "surface_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        }
    if isinstance(result, HotspotReport):
        return {
            "kind": "hotspot",
            "significant": bool(result.significant),
            "bandwidth": float(result.bandwidth),
            "bandwidth_source": result.bandwidth_source,
            "hotspots": [
                {
                    "centroid": [float(c) for c in spot.centroid],
                    "mass": float(spot.mass),
                    "area": float(spot.area),
                }
                for spot in result.hotspots
            ],
        }
    if isinstance(result, KFunctionPlot):
        return {
            "kind": "kfunction",
            "n_simulations": int(result.n_simulations),
            "rows": [
                {
                    "threshold": s, "observed": k,
                    "lower": lo, "upper": hi, "regime": regime,
                }
                for s, k, lo, hi, regime in result.rows()
            ],
        }
    raise ParameterError(
        f"no serialiser for result type {type(result).__name__}"
    )
