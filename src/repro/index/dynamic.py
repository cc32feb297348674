"""Dynamic uniform-grid index: insert/remove under a moving window.

:class:`~repro.index.GridIndex` is a static CSR snapshot — ideal for
one-shot range batches, useless for a sliding window where points enter
and expire every refresh.  :class:`DynamicGridIndex` keeps the same cell
hashing (square cells, exact distance filter) but stores cell membership
in per-cell slot lists over growable coordinate arrays, so insertion and
removal are O(cell occupancy) and the streaming K-function can charge
only the entering/leaving points per refresh instead of rebuilding.

Distance semantics match ``GridIndex`` bit for bit: candidates are
gathered from the overlapping cell block, squared distances are computed
as ``(x - cx)**2 + (y - cy)**2`` and filtered with ``d2 <= r*r``, so a
query against a dynamic index holding exactly the points of a static one
returns the same distances in either structure.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative, check_positive
from ..errors import ParameterError
from ..geometry import BoundingBox
from ..geometry.distance import search_reach, squared_norm, within

__all__ = ["DynamicGridIndex"]

#: Initial slot-array capacity; grows by doubling.
_MIN_CAPACITY = 64

#: Per-axis cell cap, so cell ids stay inside int64 however small
#: ``cell_size`` is against the window (the cells then widen past it).
_MAX_AXIS_CELLS = 1 << 20


class DynamicGridIndex:
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
    :meth:`insert`; removal frees the slot for reuse.
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
        self._cell_of_slot = np.full(_MIN_CAPACITY, -1, dtype=np.int64)
        self._cells: dict[int, list[int]] = {}
        self._free: list[int] = []
        self._top = 0
        self._n = 0

    def __len__(self) -> int:
        return self._n

    # -- internals -----------------------------------------------------------

    def _cell_index(self, x: float, y: float) -> int:
        ix = int(np.floor((x - self.bbox.xmin) / self.cell_w))
        iy = int(np.floor((y - self.bbox.ymin) / self.cell_h))
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return ix * self.ny + iy

    def _grow(self) -> None:
        cap = max(_MIN_CAPACITY, 2 * self._xs.shape[0])
        for name in ("_xs", "_ys", "_cell_of_slot"):
            old = getattr(self, name)
            fresh = np.full(cap, -1, dtype=old.dtype) \
                if name == "_cell_of_slot" else np.empty(cap, dtype=old.dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)

    # -- updates -------------------------------------------------------------

    def insert(self, x: float, y: float) -> int:
        """Add one point; returns its slot id (stable until removed)."""
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._top
            if slot >= self._xs.shape[0]:
                self._grow()
            self._top += 1
        x = float(x)
        y = float(y)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ParameterError(f"point must be finite, got ({x}, {y})")
        cell = self._cell_index(x, y)
        self._xs[slot] = x
        self._ys[slot] = y
        self._cell_of_slot[slot] = cell
        self._cells.setdefault(cell, []).append(slot)
        self._n += 1
        return slot

    def remove(self, slot: int) -> None:
        """Remove the point occupying ``slot`` (as returned by insert)."""
        slot = int(slot)
        if not (0 <= slot < self._top) or self._cell_of_slot[slot] < 0:
            raise ParameterError(f"slot {slot} does not hold a live point")
        cell = int(self._cell_of_slot[slot])
        members = self._cells[cell]
        members.remove(slot)
        if not members:
            del self._cells[cell]
        self._cell_of_slot[slot] = -1
        self._free.append(slot)
        self._n -= 1

    # -- queries -------------------------------------------------------------

    def _candidate_slots(self, x: float, y: float, radius: float) -> np.ndarray:
        reach = search_reach(radius)
        ix_lo = int(np.floor((x - reach - self.bbox.xmin) / self.cell_w))
        ix_hi = int(np.floor((x + reach - self.bbox.xmin) / self.cell_w))
        iy_lo = int(np.floor((y - reach - self.bbox.ymin) / self.cell_h))
        iy_hi = int(np.floor((y + reach - self.bbox.ymin) / self.cell_h))
        ix_lo = min(max(ix_lo, 0), self.nx - 1)
        ix_hi = min(max(ix_hi, 0), self.nx - 1)
        iy_lo = min(max(iy_lo, 0), self.ny - 1)
        iy_hi = min(max(iy_hi, 0), self.ny - 1)
        found: list[int] = []
        for ix in range(ix_lo, ix_hi + 1):
            base = ix * self.ny
            for iy in range(iy_lo, iy_hi + 1):
                members = self._cells.get(base + iy)
                if members:
                    found.extend(members)
        return np.asarray(found, dtype=np.int64)

    def neighbor_d2(self, center, radius: float) -> np.ndarray:
        """Unsorted squared distances to every live point within ``radius``.

        Same candidate-then-:func:`~repro.geometry.distance.within`
        arithmetic as the static :class:`GridIndex`, so the two agree
        bitwise on identical contents (the streamed-equals-batch K
        contract).  ``radius`` may be 0 (coincident points only).
        """
        radius = check_non_negative(radius, "radius")
        x, y = float(center[0]), float(center[1])
        slots = self._candidate_slots(x, y, radius)
        if slots.size == 0:
            return np.empty(0, dtype=np.float64)
        d2 = squared_norm(self._xs[slots] - x, self._ys[slots] - y)
        return d2[within(d2, radius)]

    def neighbor_distances(self, center, radius: float) -> np.ndarray:
        """Unsorted distances to every live point within ``radius``."""
        radius = check_positive(radius, "radius")
        return np.sqrt(self.neighbor_d2(center, radius))

    def range_count(self, center, radius: float) -> int:
        """Number of live points within ``radius`` of ``center``."""
        return int(self.neighbor_distances(center, radius).shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGridIndex(n={self._n}, cells={self.nx}x{self.ny}, "
            f"cell_size={self.cell_size:g})"
        )
