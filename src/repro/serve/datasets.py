"""Server-side datasets: named, growable point sets with stable identity.

A request (:mod:`repro.core.request`) names a dataset; this module is
what the name resolves to.  Each :class:`Dataset` carries two distinct
hashes, and the distinction is what makes streaming cache invalidation
work:

* ``identity`` — fixed at creation, stable across ingests.  Tile-cache
  keys use it, so an ingest does **not** wipe the whole pyramid; instead
  the maintained surfaces report exactly which tiles changed and only
  those entries are evicted.
* :meth:`Dataset.content_fingerprint` — a running hash advanced by every
  ingest batch.  Query-result cache keys use it, so results computed
  over stale contents can never be served again (they simply stop
  matching and age out of the LRU).

Ingests are append-only — the window semantics of a live feed are the
business of :mod:`repro.stream`; the serving dataset is the ever-growing
ground truth those windows slide over.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from .._validation import as_points
from ..errors import DataError, ParameterError, ServeError
from ..geometry import BoundingBox

__all__ = ["Dataset", "DatasetStore"]


def _bbox_tuple(bbox: BoundingBox) -> tuple[float, float, float, float]:
    """``(xmin, ymin, xmax, ymax)`` — the request wire order."""
    return (bbox.xmin, bbox.ymin, bbox.xmax, bbox.ymax)


def _as_bbox(bbox) -> BoundingBox:
    """A :class:`BoundingBox` from one or from four numbers in wire order."""
    if isinstance(bbox, BoundingBox):
        return bbox
    try:
        values = [float(v) for v in bbox]
    except (TypeError, ValueError):
        values = []
    if len(values) != 4:
        raise ParameterError(
            f"bbox must be four numbers (xmin, ymin, xmax, ymax), got {bbox!r}"
        )
    return BoundingBox(*values)


def _as_times(times, n: int) -> np.ndarray:
    """Validated float64 times of length ``n`` (arrival index by default)."""
    if times is None:
        return np.arange(n, dtype=np.float64)
    try:
        ts = np.asarray(times, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise DataError(f"times must be numbers: {exc}") from exc
    if ts.shape[0] != n:
        raise DataError(
            f"times length {ts.shape[0]} does not match {n} points"
        )
    if not np.all(np.isfinite(ts)):
        raise DataError("times must be finite")
    return ts


def _grown(values: np.ndarray, capacity: int) -> np.ndarray:
    """``values`` copied into the front of a new ``capacity``-row buffer."""
    buf = np.empty((capacity,) + values.shape[1:], dtype=values.dtype)
    buf[:values.shape[0]] = values
    return buf


class Dataset:
    """One named point set: fixed window, append-only contents.

    Thread-safe: ingests append under a lock, readers get defensive
    copies of the live contents.  ``version`` counts ingest batches
    (creation is version 0); the ``points`` property is what query
    execution feeds to :func:`~repro.core.request.execute_request`, and
    :meth:`prefix` is what
    :class:`~repro.serve.surfaces.MaintainedSurface` scatters.

    Points and times live in buffers that grow by doubling, so an ingest
    costs its own batch (amortised), not the whole dataset.
    """

    def __init__(self, name: str, points, times=None,
                 bbox: BoundingBox | None = None, margin: float = 0.05):
        if not name or not isinstance(name, str):
            raise ParameterError(f"dataset name must be a non-empty string, got {name!r}")
        pts = as_points(points)
        if pts.shape[0] == 0:
            raise DataError("a dataset needs at least one point")
        if bbox is None:
            try:
                margin = float(margin)
            except (TypeError, ValueError) as exc:
                raise ParameterError(
                    f"margin must be a number, got {margin!r}"
                ) from exc
            bbox = BoundingBox.of_points(pts, margin=margin)
        else:
            bbox = _as_bbox(bbox)
        self.name = name
        self.bbox = bbox
        self._lock = threading.Lock()
        self._n = pts.shape[0]
        self._pts = pts.copy()
        self._ts = _as_times(times, pts.shape[0]).copy()
        self.version = 0
        seed = hashlib.sha256()
        seed.update(name.encode("utf-8"))
        seed.update(np.asarray(_bbox_tuple(bbox), dtype=np.float64).tobytes())
        seed.update(np.ascontiguousarray(self._pts).tobytes())
        self.identity = seed.hexdigest()[:16]
        self._content = seed.copy()

    @property
    def n(self) -> int:
        """Number of points currently in the dataset."""
        with self._lock:
            return self._n

    @property
    def points(self) -> np.ndarray:
        """The full ``(n, 2)`` contents (a defensive copy)."""
        with self._lock:
            return self._pts[:self._n].copy()

    @property
    def times(self) -> np.ndarray:
        """Event times aligned with :attr:`points` (a copy)."""
        with self._lock:
            return self._ts[:self._n].copy()

    def prefix(self, n: int) -> np.ndarray:
        """Read-only view of the first ``n`` points, copying nothing.

        Ingests only append, and a buffer that grows is copied into a new
        one, so the view's contents never change.
        """
        with self._lock:
            if not 0 <= n <= self._n:
                raise ParameterError(
                    f"prefix length {n} outside 0..{self._n}"
                )
            view = self._pts[:n]
        view.flags.writeable = False
        return view

    def points_since(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """``(points, times)`` appended at index ``start`` onward (copies).

        The incremental feed for surface maintenance: a surface that has
        scattered the first ``start`` points catches up by scattering
        exactly this suffix.
        """
        with self._lock:
            return (self._pts[start:self._n].copy(),
                    self._ts[start:self._n].copy())

    def content_fingerprint(self) -> str:
        """Hash of the current contents, advanced by every ingest."""
        with self._lock:
            return self._content.hexdigest()[:16]

    def ingest(self, points, times=None) -> int:
        """Append a batch; returns the number of points added.

        Points outside the dataset's fixed window are rejected — the
        window is part of the dataset's identity (every maintained
        surface is rasterised over it), so growing it silently would
        corrupt every cached tile.
        """
        pts = as_points(points)
        if pts.shape[0] == 0:
            return 0
        inside = self.bbox.contains(pts)
        if not np.all(inside):
            raise DataError(
                f"{int((~inside).sum())} of {pts.shape[0]} ingested points "
                f"fall outside the dataset window {_bbox_tuple(self.bbox)}"
            )
        ts = _as_times(times, pts.shape[0])
        with self._lock:
            n, end = self._n, self._n + pts.shape[0]
            if end > self._pts.shape[0]:
                capacity = max(end, 2 * self._pts.shape[0])
                self._pts = _grown(self._pts[:n], capacity)
                self._ts = _grown(self._ts[:n], capacity)
            self._pts[n:end] = pts
            self._ts[n:end] = ts
            self._n = end
            self.version += 1
            self._content.update(np.ascontiguousarray(pts).tobytes())
        return int(pts.shape[0])

    def summary(self) -> dict:
        """JSON-safe description (the ``/v1/datasets`` row)."""
        with self._lock:
            n = self._n
            version = self.version
            content = self._content.hexdigest()[:16]
        return {
            "name": self.name,
            "n": n,
            "version": version,
            "identity": self.identity,
            "content": content,
            "bbox": list(_bbox_tuple(self.bbox)),
        }


class DatasetStore:
    """Registry of named datasets behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._datasets: dict[str, Dataset] = {}

    def create(self, name: str, points, times=None,
               bbox: BoundingBox | None = None, margin: float = 0.05
               ) -> Dataset:
        """Register a new dataset; duplicate names are rejected."""
        dataset = Dataset(name, points, times=times, bbox=bbox, margin=margin)
        with self._lock:
            if name in self._datasets:
                raise ParameterError(f"dataset {name!r} already exists")
            self._datasets[name] = dataset
        return dataset

    def get(self, name: str) -> Dataset:
        """The named dataset; unknown names raise :class:`ServeError` (404)."""
        with self._lock:
            dataset = self._datasets.get(name)
        if dataset is None:
            raise ServeError(
                f"unknown dataset {name!r}; known: "
                f"{', '.join(sorted(self._datasets)) or '(none)'}"
            )
        return dataset

    def names(self) -> tuple[str, ...]:
        """Registered dataset names, sorted."""
        with self._lock:
            return tuple(sorted(self._datasets))

    def summaries(self) -> list[dict]:
        """JSON-safe rows for every dataset, sorted by name."""
        with self._lock:
            datasets = [self._datasets[k] for k in sorted(self._datasets)]
        return [d.summary() for d in datasets]
