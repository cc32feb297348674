"""A 2-D range tree for axis-aligned rectangle queries.

The paper's range-query discussion (§2.3) cites the range tree [40]
alongside kd-trees and ball-trees.  A range tree answers *rectangle*
counting/reporting queries in O(log^2 n): the primary tree is a balanced
BST over x-coordinates, and every internal node stores its subtree's
points sorted by y, so a query decomposes into O(log n) canonical nodes,
each resolved with two binary searches on its y-array.

Rectangle queries complement the disc queries of the other indexes: they
are what window/zoom selections in map UIs (KDV-Explorer-style panning)
translate to, and a disc can be counted as (bounding-rectangle candidates
-> exact filter), which :meth:`RangeTree.range_count_disc` provides.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_points, check_positive
from ..errors import ParameterError
from ..geometry.distance import search_reach, squared_norm, within

__all__ = ["RangeTree"]


class RangeTree:
    """Static 2-D range tree over planar points.

    Construction is O(n log n); rectangle count/report is O(log^2 n + k).
    """

    def __init__(self, points):
        self.points = as_points(points)
        n = self.points.shape[0]
        order = np.argsort(self.points[:, 0], kind="stable")
        self._xs = self.points[order, 0]
        self._idx_by_x = order.astype(np.int64)

        # Node t covers the x-sorted slice [start_t, stop_t); children are
        # 2t+1 / 2t+2 in a heap layout built by recursive halving.
        self._start: list[int] = []
        self._stop: list[int] = []
        self._ys: list[np.ndarray] = []  # per-node y-sorted values
        self._yidx: list[np.ndarray] = []  # original ids in the same order
        self._left: list[int] = []
        self._right: list[int] = []

        # Iterative two-pass build (reserve slots, then fill children) so
        # deep trees cannot hit the recursion limit.
        def new_node(start: int, stop: int) -> int:
            node = len(self._start)
            self._start.append(start)
            self._stop.append(stop)
            ids = self._idx_by_x[start:stop]
            ys = self.points[ids, 1]
            ysort = np.argsort(ys, kind="stable")
            self._ys.append(ys[ysort])
            self._yidx.append(ids[ysort])
            self._left.append(-1)
            self._right.append(-1)
            return node

        if n:
            root = new_node(0, n)
            stack = [root]
            while stack:
                node = stack.pop()
                start, stop = self._start[node], self._stop[node]
                if stop - start <= 1:
                    continue
                mid = (start + stop) // 2
                left = new_node(start, mid)
                right = new_node(mid, stop)
                self._left[node] = left
                self._right[node] = right
                stack.append(left)
                stack.append(right)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    # -- canonical decomposition -------------------------------------------------

    def _canonical_nodes(self, x_lo: float, x_hi: float) -> list[int]:
        """Nodes whose x-slices exactly tile the query x-interval."""
        if len(self) == 0 or x_lo > x_hi:
            return []
        lo = int(np.searchsorted(self._xs, x_lo, side="left"))
        hi = int(np.searchsorted(self._xs, x_hi, side="right"))
        if lo >= hi:
            return []
        out: list[int] = []
        stack = [0]
        while stack:
            node = stack.pop()
            start, stop = self._start[node], self._stop[node]
            if stop <= lo or start >= hi:
                continue
            if lo <= start and stop <= hi:
                out.append(node)
                continue
            if self._left[node] != -1:
                stack.append(self._left[node])
                stack.append(self._right[node])
        return out

    # -- queries ---------------------------------------------------------------

    def rect_count(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> int:
        """Number of points in the closed rectangle."""
        if x_lo > x_hi or y_lo > y_hi:
            raise ParameterError("rectangle bounds must satisfy lo <= hi")
        total = 0
        for node in self._canonical_nodes(x_lo, x_hi):
            ys = self._ys[node]
            total += int(
                np.searchsorted(ys, y_hi, side="right")
                - np.searchsorted(ys, y_lo, side="left")
            )
        return total

    def rect_indices(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> np.ndarray:
        """Original indices of the points in the closed rectangle."""
        if x_lo > x_hi or y_lo > y_hi:
            raise ParameterError("rectangle bounds must satisfy lo <= hi")
        hits: list[np.ndarray] = []
        for node in self._canonical_nodes(x_lo, x_hi):
            ys = self._ys[node]
            a = int(np.searchsorted(ys, y_lo, side="left"))
            b = int(np.searchsorted(ys, y_hi, side="right"))
            if b > a:
                hits.append(self._yidx[node][a:b])
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(hits)

    def range_count_disc(self, center, radius: float) -> int:
        """Disc count via bounding-rectangle candidates + exact filter.

        The candidate rectangle is padded by a relative epsilon so points
        whose *squared* distance rounds to exactly ``radius^2`` (the
        library-wide inclusion convention) are not lost to coordinate
        rounding at the rectangle boundary.
        """
        radius = check_positive(radius, "radius")
        x, y = float(center[0]), float(center[1])
        pad = search_reach(radius)
        idx = self.rect_indices(x - pad, x + pad, y - pad, y + pad)
        if idx.size == 0:
            return 0
        cand = self.points[idx]
        d2 = squared_norm(cand[:, 0] - x, cand[:, 1] - y)
        return int(np.count_nonzero(within(d2, radius)))
