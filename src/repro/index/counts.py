"""Batched pair counts: one vectorised cell-block kernel for the grids.

The one grid query path, behind every K-function count, DBSCAN, the
pair correlation function, the inhomogeneous K and the adaptive-KDV
pilot: paper §2.3's range-query-based method with multi-threshold batching.

:class:`CellLayout` is the kernel.  Over points sorted by cell id it
takes a whole query array at once: each query's clamped cell block at
:func:`~repro.geometry.distance.search_reach` of the radius becomes one
run per lattice column, found by ``searchsorted`` on the sorted cell ids
(no dense ``nx * ny`` array, so a lattice may have 2**20 cells per
axis); the runs expand into candidate positions, and every candidate's
squared distance is computed against its run's query.  Work goes in
chunks of a fixed :data:`_PAIR_BUDGET` candidate pairs, so memory stays
bounded however many queries or candidates there are.  Three readers
share that one chunk loop:

* :meth:`CellLayout.pairs` keeps the candidates that pass
  :func:`~repro.geometry.distance.within` and yields their query index
  and squared distance, no point ids;
* :meth:`CellLayout.neighbors` yields the point ids too;
* :meth:`CellLayout.totals` lists no pair: per chunk it adds
  ``count_nonzero(d2 <= t2)`` for each squared threshold.

Through :class:`CellQueries`, :class:`~repro.index.GridIndex` and
:class:`~repro.index.DynamicGridIndex` answer every query with it, a
single-point one as a batch of one.

Both multi-threshold counters test ``d2 <= t2`` with ``t2 = copysign(t
* t, t)``, so a zero threshold counts coincident points only and a
negative one admits nothing.  :func:`threshold_totals` gives the ``(D,)``
totals over all queries, which is what the global, cross and streamed K
need.  :func:`threshold_counts` keeps the per-query ``(nq, D)`` table
(local and border-corrected K): it bins each kept squared distance at
``#{sorted t2 < d2}``, one comparison per threshold, and turns the
per-query histograms into counts with one ``cumsum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .._validation import as_center, as_points, check_non_negative, check_positive
from ..errors import ParameterError
from ..geometry.distance import search_reach, squared_norm, within

__all__ = ["QUERY_BLOCK", "CellLayout", "CellQueries", "lattice_axis",
           "threshold_counts", "threshold_totals"]

#: Candidate pairs per kernel chunk.  A constant, never derived from the
#: input: chunking changes no result, only the size of the temporaries.
_PAIR_BUDGET = 1 << 16

#: Queries per neighbour-list block.  A constant for the same reason:
#: blocking bounds the gathered lists and changes no result.
QUERY_BLOCK = 256


def lattice_axis(v, origin: float, width: float, n: int) -> np.ndarray:
    """Lattice column (or row) of each coordinate, clamped to ``[0, n)``."""
    raw = np.floor((np.asarray(v, dtype=np.float64) - origin) / width)
    return np.clip(raw, 0, n - 1).astype(np.int64)


@dataclass(frozen=True)
class CellLayout:
    """Points sorted by cell id on a clamped ``nx`` x ``ny`` lattice.

    ``cells`` is sorted and ``xs``/``ys`` hold the coordinates in the same
    order.  Cell ``ix * ny + iy`` spans ``cell_w`` x ``cell_h`` from
    ``(x0, y0)``; coordinates outside the lattice clamp into its boundary
    cells, which the exact distance test then filters.  ``ids`` names the
    point at each position (an index or a slot).
    """

    cells: np.ndarray
    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    x0: float
    y0: float
    cell_w: float
    cell_h: float
    nx: int
    ny: int

    def _chunks(self, queries: np.ndarray, radius: float):
        """Yield ``(pos, runs, seg, d2)`` per chunk of candidates.

        The chunk's candidates come from ``seg[j]`` positions of query
        ``runs[j]`` in turn (``np.repeat(runs, seg)`` names each one's
        query); query indices never decrease, and a query's candidates
        come column by column, in order.  ``d2`` is ``squared_norm(px -
        qx, py - qy)`` of every candidate, untested: the callers apply
        :func:`~repro.geometry.distance.within`.  ``radius >= 0`` is
        validated by the caller.
        """
        m = queries.shape[0]
        if m == 0 or self.cells.shape[0] == 0:
            return
        qx = queries[:, 0]
        qy = queries[:, 1]
        reach = search_reach(radius)
        ix_lo = lattice_axis(qx - reach, self.x0, self.cell_w, self.nx)
        ix_hi = lattice_axis(qx + reach, self.x0, self.cell_w, self.nx)
        iy_lo = lattice_axis(qy - reach, self.y0, self.cell_h, self.ny)
        iy_hi = lattice_axis(qy + reach, self.y0, self.cell_h, self.ny)
        # One run of sorted positions per (query, block column).
        ncol = ix_hi - ix_lo + 1
        run_q = np.repeat(np.arange(m), ncol)
        run_x = qx[run_q]
        run_y = qy[run_q]
        col = np.arange(run_q.shape[0]) - np.repeat(np.cumsum(ncol) - ncol, ncol)
        base = (ix_lo[run_q] + col) * self.ny
        start = np.searchsorted(self.cells, base + iy_lo[run_q], side="left")
        stop = np.searchsorted(self.cells, base + iy_hi[run_q], side="right")
        ends = np.cumsum(stop - start)
        begins = ends - (stop - start)
        shift = start - begins  # candidate k of run r sits at k + shift[r]
        total = int(ends[-1])
        for c0 in range(0, total, _PAIR_BUDGET):
            c1 = min(c0 + _PAIR_BUDGET, total)
            r0 = int(np.searchsorted(ends, c0, side="right"))
            r1 = int(np.searchsorted(ends, c1 - 1, side="right")) + 1
            seg = np.minimum(ends[r0:r1], c1) - np.maximum(begins[r0:r1], c0)
            pos = np.arange(c0, c1) + np.repeat(shift[r0:r1], seg)
            d2 = squared_norm(self.xs[pos] - np.repeat(run_x[r0:r1], seg),
                              self.ys[pos] - np.repeat(run_y[r0:r1], seg))
            yield pos, run_q[r0:r1], seg, d2

    def pairs(self, queries: np.ndarray, radius: float
              ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(query_index, d2)`` of every pair within ``radius >= 0``.

        The per-query counting form: no point ids are gathered.
        """
        radius = check_non_negative(radius, "radius")
        for _, runs, seg, d2 in self._chunks(queries, radius):
            keep = within(d2, radius)
            yield np.repeat(runs, seg)[keep], d2[keep]

    def neighbors(self, queries: np.ndarray, radius: float
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(query_index, ids, d2)`` of every pair within ``radius >= 0``."""
        radius = check_non_negative(radius, "radius")
        for pos, runs, seg, d2 in self._chunks(queries, radius):
            keep = within(d2, radius)
            yield np.repeat(runs, seg)[keep], self.ids[pos[keep]], d2[keep]

    def totals(self, queries: np.ndarray, t2: np.ndarray, radius: float
               ) -> np.ndarray:
        """``(D,)`` int64 count of candidate pairs with ``d2 <= t2[k]``.

        ``radius >= 0`` must reach every threshold (``t2 <= radius *
        radius``).  No pair is listed: each chunk adds one
        ``count_nonzero`` per threshold.
        """
        limits = t2.tolist()
        out = [0] * len(limits)
        for _, _, _, d2 in self._chunks(queries, radius):
            for k, t in enumerate(limits):
                out[k] += int(np.count_nonzero(d2 <= t))
        return np.array(out, dtype=np.int64)


class CellQueries:
    """Every grid query, through the ``_cells_layout()`` a subclass gives.

    A single-point query is the kernel on a batch of one: the same ids
    and squared distances, in the same order, as inside any batch.  It
    rejects a non-finite centre; batched callers validate their queries.
    """

    def _cells_layout(self) -> CellLayout:
        raise NotImplementedError

    def neighbor_pairs(self, queries: np.ndarray, radius: float):
        """``(query_index, d2)`` chunks of every pair within ``radius >= 0``.

        :meth:`CellLayout.pairs` over the whole ``(m, 2)`` query array;
        :func:`threshold_counts` reads it.
        """
        return self._cells_layout().pairs(queries, radius)

    def neighbors(self, queries: np.ndarray, radius: float):
        """``(query_index, ids, d2)`` chunks of every pair within ``radius >= 0``."""
        return self._cells_layout().neighbors(queries, radius)

    def neighbor_blocks(self, queries: np.ndarray, radius: float):
        """Yield ``(start, bounds, ids, d2)`` per block of :data:`QUERY_BLOCK` queries.

        Query ``start + k`` has the neighbours ``ids[bounds[k]:bounds[k + 1]]``
        within ``radius >= 0``, at the squared distances in the same slice
        of ``d2``, in cell order; ``bounds`` is a list of ints.
        """
        layout = self._cells_layout()
        for start in range(0, queries.shape[0], QUERY_BLOCK):
            block = queries[start:start + QUERY_BLOCK]
            found = list(layout.neighbors(block, radius))
            if found:
                qi, ids, d2 = (np.concatenate(col) for col in zip(*found))
            else:
                qi = ids = np.empty(0, dtype=np.int64)
                d2 = np.empty(0, dtype=np.float64)
            bounds = np.searchsorted(qi, np.arange(block.shape[0] + 1))
            yield start, bounds.tolist(), ids, d2

    def _query_one(self, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
        x, y = as_center(center)
        _, _, ids, d2 = next(self.neighbor_blocks(np.array([[x, y]]), radius))
        return ids, d2

    def range_indices(self, center, radius: float) -> np.ndarray:
        """Ids of the points within ``radius > 0`` of ``center``, in cell order."""
        radius = check_positive(radius, "radius")
        return self._query_one(center, radius)[0]

    def range_count(self, center, radius: float) -> int:
        """Number of points within ``radius > 0`` of ``center``."""
        return int(self.range_indices(center, radius).shape[0])

    def neighbor_d2(self, center, radius: float) -> np.ndarray:
        """Squared distances of every point within ``radius >= 0``, in cell order."""
        return self._query_one(center, radius)[1]

    def neighbor_distances(self, center, radius: float) -> np.ndarray:
        """Distances from ``center`` to every point within ``radius > 0``."""
        radius = check_positive(radius, "radius")
        return np.sqrt(self.neighbor_d2(center, radius))


def _squared_thresholds(thresholds) -> tuple[np.ndarray, float]:
    """``(t2, rmax)``: ``copysign(t * t, t)`` per threshold and the pair radius.

    A negative threshold's ``t2`` is negative, so ``d2 <= t2`` admits
    nothing; a zero one admits coincident points only.  ``rmax`` is the
    largest threshold (zero if none is positive).
    """
    ts = np.asarray(thresholds, dtype=np.float64).ravel()
    if ts.size == 0:
        raise ParameterError("thresholds must contain at least one value")
    rmax = check_non_negative(max(float(ts.max()), 0.0), "radius")
    return np.copysign(ts * ts, ts), rmax


def threshold_counts(index, queries, thresholds) -> np.ndarray:
    """``(nq, D)`` int64 counts of indexed points within each threshold.

    ``index`` is a :class:`GridIndex` or a :class:`DynamicGridIndex`; its
    ``neighbor_pairs`` yields the pairs within the largest threshold.
    Count ``k`` of a query is ``#{d2 <= t2[k]}`` with
    ``t2 = copysign(t * t, t)``: each squared distance lands in the bin
    ``#{sorted t2 < d2}`` (one comparison per threshold) and a per-query
    ``cumsum`` of the bins gives every threshold, in the order given.  A
    zero threshold counts coincident points only; a negative one admits
    nothing.  Callers that only sum over the queries use
    :func:`threshold_totals`.
    """
    q = as_points(queries, name="queries", allow_empty=True)
    t2, rmax = _squared_thresholds(thresholds)
    order = np.argsort(t2, kind="stable")
    t2_sorted = t2[order].tolist()
    width = t2.size + 1  # the last bin holds pairs beyond every threshold
    bins = np.zeros((q.shape[0], width), dtype=np.int64)
    for qi, d2 in index.neighbor_pairs(q, rmax):
        if qi.size == 0:
            continue
        lo = int(qi[0])
        hi = int(qi[-1]) + 1
        b = (qi - lo) * width
        for t in t2_sorted:
            b += d2 > t
        bins[lo:hi] += np.bincount(b, minlength=(hi - lo) * width).reshape(
            hi - lo, width)
    out = np.empty((q.shape[0], t2.size), dtype=np.int64)
    out[:, order] = np.cumsum(bins[:, :-1], axis=1)
    return out


def threshold_totals(index, queries, thresholds) -> np.ndarray:
    """``(D,)`` int64 pair counts within each threshold, summed over queries.

    Equals ``threshold_counts(index, queries, thresholds).sum(axis=0)``
    exactly, without listing a pair: each chunk of the grid's cell-block
    kernel adds ``count_nonzero(d2 <= t2[k])`` per threshold, with the
    same ``t2 = copysign(t * t, t)``.  ``index`` is a :class:`GridIndex`
    or a :class:`DynamicGridIndex`.
    """
    if not isinstance(index, CellQueries):
        raise ParameterError(
            "threshold_totals needs a GridIndex or a DynamicGridIndex, "
            f"got {type(index).__name__}"
        )
    q = as_points(queries, name="queries", allow_empty=True)
    t2, rmax = _squared_thresholds(thresholds)
    return index._cells_layout().totals(q, t2, rmax)
