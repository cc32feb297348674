"""Dynamic uniform-grid index: insert/remove under a moving window.

:class:`~repro.index.GridIndex` is a static CSR snapshot — ideal for
one-shot range batches, useless for a sliding window where points enter
and expire every refresh.  :class:`DynamicGridIndex` keeps the same cell
hashing (square cells, exact distance filter) over growable slot arrays
that record each live slot's coordinates and cell id: insertion and
removal are O(1) per point, and ``insert_many`` / ``remove_many`` take
a whole batch in a few array operations, so the streaming K-function
can charge only the entering/leaving points per refresh instead of
rebuilding.

Queries go through the batched cell-block kernel,
:class:`~repro.index.counts.CellLayout`, over the live slots sorted by
cell id, ties by slot.  The layout is cached; after updates the next
query drops the slots that changed from it and merges the live ones back
in, instead of sorting every live slot again.  It uses
the same :class:`~repro.index.counts.CellQueries` as ``GridIndex``: ids
are slots.  Its squared distances are ``(x - cx)**2 + (y - cy)**2``
filtered with ``d2 <= r*r``, as in ``GridIndex``, so a query against a
dynamic index holding exactly the points of a static one returns the
same distances in either structure (the streamed-equals-batch K
contract).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_points, check_positive
from ..errors import ParameterError
from ..geometry import BoundingBox
from ..geometry.distance import search_reach
from .counts import CellLayout, CellQueries, lattice_axis

__all__ = ["DynamicGridIndex"]

#: Initial slot-array capacity; grows by doubling.
_MIN_CAPACITY = 64

#: Per-axis cell cap, so cell ids stay inside int64 however small
#: ``cell_size`` is against the window (the cells then widen past it).
_MAX_AXIS_CELLS = 1 << 20


class DynamicGridIndex(CellQueries):
    """Uniform-grid index over a fixed window supporting insert/remove.

    Parameters
    ----------
    bbox:
        Study window.  The cell lattice is fixed at construction (unlike
        the static index there is no point set to infer it from), and
        out-of-window points clamp into boundary cells exactly like
        ``GridIndex`` build-time clamping.
    cell_size:
        Square cell side; choose the maximum query radius so a query
        inspects at most a 3x3 cell block.

    Points are addressed by the integer **slot** returned from
    :meth:`insert`; removal frees the slot for reuse.  Queries that name
    points (``range_indices``, ``neighbor_blocks``) return slots.
    """

    def __init__(self, bbox: BoundingBox, cell_size: float):
        if not isinstance(bbox, BoundingBox):
            raise ParameterError("bbox must be a BoundingBox")
        self.bbox = bbox
        self.cell_size = check_positive(cell_size, "cell_size")
        # Cells as wide as the search reach of cell_size keep a query at
        # that radius inside a 3x3 block, however tiny cell_size is.
        side = search_reach(self.cell_size)
        cap = _MAX_AXIS_CELLS
        self.nx = max(1, int(np.ceil(min(bbox.width / side, cap))))
        self.ny = max(1, int(np.ceil(min(bbox.height / side, cap))))
        self.cell_w = max(bbox.width / self.nx, side)
        self.cell_h = max(bbox.height / self.ny, side)
        self._xs = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._ys = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._cell_of_slot = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._free: list[int] = []
        self._top = 0
        self._n = 0
        # The last layout built and the slot batches inserted or removed
        # since, as one tuple so a reader sees the two together.
        self._layout: tuple[CellLayout | None, tuple[np.ndarray, ...]] = (
            None, ()
        )

    def __len__(self) -> int:
        return self._n

    # -- internals -----------------------------------------------------------

    def _reserve(self, size: int) -> None:
        cap = self._xs.shape[0]
        if size <= cap:
            return
        while cap < size:
            cap *= 2
        # Slots at or past ``_top`` are never read, so the tail stays blank.
        for name in ("_xs", "_ys", "_cell_of_slot"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)

    def _cells_layout(self) -> CellLayout:
        """The live slots sorted by cell id, ties by slot (cached).

        The first call sorts every live slot.  After updates, the slots
        they touched leave the cached order and those still live are
        merged back in, which yields the arrays a full sort would.
        Concurrent readers may each build it once: the layouts are equal,
        and one is stored only when complete.
        """
        layout, changed = self._layout
        if layout is not None and not changed:
            return layout
        if layout is None:
            cells = self._cell_of_slot[: self._top]
            live = np.flatnonzero(cells >= 0)
            slots = live[np.argsort(cells[live], kind="stable")]
            arrays = (cells[slots], slots, self._xs[slots], self._ys[slots])
        else:
            arrays = self._merged(layout, np.concatenate(changed))
        layout = CellLayout(
            *arrays, self.bbox.xmin, self.bbox.ymin, self.cell_w, self.cell_h,
            self.nx, self.ny,
        )
        self._layout = (layout, ())
        return layout

    def _merged(self, layout: CellLayout, changed: np.ndarray):
        """``layout`` without the ``changed`` slots, their live ones merged in.

        Returns ``(cells, ids, xs, ys)`` in ``(cell, slot)`` order.  A slot
        entering cell ``c`` goes after every kept position of a smaller
        cell and of a smaller slot in ``c``: with ``first`` the index of a
        kept cell's first position, kept keys ``(2 * first + 1, slot)`` and
        entering keys ``(2 * lo + [c is kept], slot)`` (``lo`` = where
        ``c`` sorts among the kept cells) order exactly that way, and fit
        one int64 as ``rank * top + slot``.
        """
        gone = np.zeros(self._top, dtype=bool)
        gone[changed] = True
        keep = ~gone[layout.ids]
        cells, ids = layout.cells[keep], layout.ids[keep]
        xs, ys = layout.xs[keep], layout.ys[keep]
        enter = np.flatnonzero(gone & (self._cell_of_slot[: self._top] >= 0))
        if enter.size == 0:
            return cells, ids, xs, ys
        enter_cells = self._cell_of_slot[enter]
        order = np.argsort(enter_cells, kind="stable")  # ``enter`` is sorted
        enter, enter_cells = enter[order], enter_cells[order]
        top = np.int64(self._top)
        n = cells.shape[0]
        starts = np.ones(n, dtype=bool)
        starts[1:] = cells[1:] != cells[:-1]
        first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
        lo = np.searchsorted(cells, enter_cells)
        same = cells[np.minimum(lo, n - 1)] == enter_cells if n else False
        at = np.searchsorted(
            (2 * first + 1) * top + ids, (2 * lo + same) * top + enter
        )
        # ``at`` never decreases along the entering order.
        dest = at + np.arange(enter.shape[0])
        kept = np.ones(n + enter.shape[0], dtype=bool)
        kept[dest] = False
        out = []
        for old, new in ((cells, enter_cells), (ids, enter),
                         (xs, self._xs[enter]), (ys, self._ys[enter])):
            merged = np.empty(kept.shape[0], dtype=old.dtype)
            merged[kept] = old
            merged[dest] = new
            out.append(merged)
        return tuple(out)

    # -- updates -------------------------------------------------------------

    def insert_many(self, points) -> np.ndarray:
        """Add ``(k, 2)`` points; returns their slot ids, in order.

        The slots are the ones ``k`` :meth:`insert` calls would return:
        freed slots first (most recently freed first), then fresh ones.
        Nothing is inserted if any point is non-finite.
        """
        pts = as_points(points, allow_empty=True)
        k = pts.shape[0]
        reused = self._free[-k:][::-1] if k else []
        del self._free[len(self._free) - len(reused):]
        fresh = np.arange(self._top, self._top + k - len(reused))
        self._reserve(self._top + fresh.shape[0])
        self._top += fresh.shape[0]
        slots = np.concatenate([np.asarray(reused, dtype=np.int64), fresh])
        self._xs[slots] = pts[:, 0]
        self._ys[slots] = pts[:, 1]
        self._cell_of_slot[slots] = (
            lattice_axis(pts[:, 0], self.bbox.xmin, self.cell_w, self.nx) * self.ny
            + lattice_axis(pts[:, 1], self.bbox.ymin, self.cell_h, self.ny)
        )
        self._n += k
        self._touch(slots)
        return slots

    def insert(self, x: float, y: float) -> int:
        """Add one point; returns its slot id (stable until removed)."""
        return int(self.insert_many([[x, y]])[0])

    def remove_many(self, slots) -> None:
        """Remove the points occupying ``slots`` (as returned by insert).

        The free list ends as the one-by-one :meth:`remove` calls would
        leave it, so later inserts get the same slots.  The whole batch is
        checked first: an out-of-range or dead slot, or one named twice,
        raises :class:`~repro.errors.ParameterError` and removes nothing.
        """
        s = np.asarray(slots).astype(np.int64, copy=False).ravel()
        if s.size == 0:
            return
        live = (s >= 0) & (s < self._top)
        live[live] = self._cell_of_slot[s[live]] >= 0
        if not live.all():
            raise ParameterError(
                f"slot {int(s[~live][0])} does not hold a live point"
            )
        seen, times = np.unique(s, return_counts=True)
        if (times > 1).any():
            raise ParameterError(f"slot {int(seen[times > 1][0])} is named twice")
        self._cell_of_slot[s] = -1
        self._free.extend(s.tolist())
        self._n -= s.size
        self._touch(s)

    def _touch(self, slots: np.ndarray) -> None:
        """Record updated slots for the next layout merge.

        Once more slots have changed than the cached layout holds, the
        layout is dropped: sorting from scratch costs no more then.
        """
        layout, changed = self._layout
        if layout is None or slots.size == 0:
            return
        changed += (slots.copy(),)
        if sum(c.size for c in changed) > layout.ids.shape[0]:
            self._layout = (None, ())
        else:
            self._layout = (layout, changed)

    def remove(self, slot: int) -> None:
        """Remove the point occupying ``slot`` (as returned by insert)."""
        self.remove_many([int(slot)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGridIndex(n={self._n}, cells={self.nx}x{self.ny}, "
            f"cell_size={self.cell_size:g})"
        )
