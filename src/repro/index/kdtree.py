"""A 2-d kd-tree built from scratch.

The tree supports the three access patterns the analytics layer needs:

* **range queries / range counts** for distance-band spatial weights,
* **k-nearest-neighbour queries** for IDW and kriging neighbourhoods,
* **node-level traversal** for the dual-tree KDV (QUAD/KARL-style
  function approximation), which bounds a pixel tile's distance to a
  node through the node's bounding box (``node_min`` / ``node_max``) and
  weighs it by the number of points below the node.

Nodes are stored in flat NumPy arrays (structure-of-arrays) and points are
reordered once at build time, so leaf scans are contiguous slices.

Trees may carry optional per-point **weights**: every node then exposes
the total weight below it (``node_weight_sum``), which lets weighted
density bounds replace point counts as the bound multipliers
(``W_node * K(dmax) <= contribution <= W_node * K(dmin)``).  Unweighted
trees expose the point counts through the same array, so traversal code
never branches on weightedness.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._validation import (
    as_center, as_points, as_weights, check_non_negative, check_positive,
)
from ..errors import ParameterError
from ..geometry.distance import squared_norm, within

__all__ = ["KDTree"]

_NO_CHILD = -1


class KDTree:
    """Median-split 2-d kd-tree.

    Parameters
    ----------
    points:
        ``(n, 2)`` coordinates.
    leaf_size:
        Maximum number of points in a leaf; smaller leaves mean deeper trees
        (better pruning, more overhead).  16-64 is a good range.
    weights:
        Optional per-point non-negative weights.  When given, every node
        carries the total weight of the points below it
        (:attr:`node_weight_sum`); when omitted the same array holds the
        point counts, so weighted and unweighted traversals share code.
    """

    def __init__(self, points, leaf_size: int = 32, weights=None):
        self.points = as_points(points)
        leaf_size = int(leaf_size)
        if leaf_size < 1:
            raise ParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size
        if weights is None:
            self.weights = None
        else:
            self.weights = as_weights(weights, self.points.shape[0])

        n = self.points.shape[0]
        self.indices = np.arange(n, dtype=np.int64)

        # Node arrays, grown as python lists during the build.
        starts: list[int] = []
        stops: list[int] = []
        lefts: list[int] = []
        rights: list[int] = []
        mins: list[np.ndarray] = []
        maxs: list[np.ndarray] = []

        # Iterative build with an explicit stack to avoid recursion limits.
        # Each stack entry: (start, stop, node_slot); node_slot == -1 means
        # "append a fresh node", otherwise fill in the reserved child slot.
        pts = self.points
        idx = self.indices

        def new_node(start: int, stop: int) -> int:
            node = len(starts)
            starts.append(start)
            stops.append(stop)
            lefts.append(_NO_CHILD)
            rights.append(_NO_CHILD)
            block = pts[idx[start:stop]]
            mins.append(block.min(axis=0))
            maxs.append(block.max(axis=0))
            return node

        root = new_node(0, n)
        stack = [root]
        while stack:
            node = stack.pop()
            start, stop = starts[node], stops[node]
            count = stop - start
            if count <= self.leaf_size:
                continue
            extent = maxs[node] - mins[node]
            dim = int(np.argmax(extent))
            if extent[dim] == 0.0:
                continue  # all points identical: keep as a leaf
            mid = start + count // 2
            seg = idx[start:stop]
            part = np.argpartition(pts[seg, dim], mid - start)
            idx[start:stop] = seg[part]
            left = new_node(start, mid)
            right = new_node(mid, stop)
            lefts[node] = left
            rights[node] = right
            stack.append(left)
            stack.append(right)

        self.node_start = np.asarray(starts, dtype=np.int64)
        self.node_stop = np.asarray(stops, dtype=np.int64)
        self.node_left = np.asarray(lefts, dtype=np.int64)
        self.node_right = np.asarray(rights, dtype=np.int64)
        self.node_min = np.asarray(mins, dtype=np.float64)
        self.node_max = np.asarray(maxs, dtype=np.float64)
        self._sorted_points = self.points[self.indices]

        # Per-node weight totals, bottom-up so an internal node's sum is
        # exactly left + right (children are appended after their parent,
        # so a reverse scan sees both children first).  Unit weights
        # reproduce the integer point counts bit-for-bit.
        n_nodes = len(starts)
        wsum = np.empty(n_nodes, dtype=np.float64)
        if self.weights is None:
            self._sorted_weights = None
            wsum[:] = self.node_stop - self.node_start
        else:
            self._sorted_weights = self.weights[self.indices]
            for node in range(n_nodes - 1, -1, -1):
                if lefts[node] == _NO_CHILD:
                    wsum[node] = self._sorted_weights[
                        starts[node]:stops[node]
                    ].sum()
                else:
                    wsum[node] = wsum[lefts[node]] + wsum[rights[node]]
        self.node_weight_sum = wsum

    # -- node-level API (used by the dual-tree KDV) -------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.node_start.shape[0])

    def node_count(self, node: int) -> int:
        """Number of points stored under ``node``."""
        return int(self.node_stop[node] - self.node_start[node])

    def node_weight(self, node: int) -> float:
        """Total weight below ``node`` (the point count when unweighted)."""
        return float(self.node_weight_sum[node])

    @property
    def total_weight(self) -> float:
        """Total weight of the whole tree (``n`` when unweighted)."""
        return float(self.node_weight_sum[0])

    def node_point_weights(self, node: int) -> np.ndarray | None:
        """Weights of the points under ``node`` in leaf-scan order.

        Returns ``None`` for unweighted trees so exact leaf scans can skip
        the multiply entirely (and unit-weight trees stay bit-identical to
        count-based ones).
        """
        if self._sorted_weights is None:
            return None
        return self._sorted_weights[self.node_start[node]:self.node_stop[node]]

    def is_leaf(self, node: int) -> bool:
        return self.node_left[node] == _NO_CHILD

    def children(self, node: int) -> tuple[int, int]:
        return int(self.node_left[node]), int(self.node_right[node])

    def node_points(self, node: int) -> np.ndarray:
        """Coordinates of the points under ``node`` (contiguous view)."""
        return self._sorted_points[self.node_start[node]:self.node_stop[node]]

    def node_point_indices(self, node: int) -> np.ndarray:
        """Original indices of the points under ``node``."""
        return self.indices[self.node_start[node]:self.node_stop[node]]

    def _node_gaps(self, node: int, x: float, y: float) -> tuple[float, ...]:
        """Per-axis (min, min, max, max) offsets from ``(x, y)`` to the box."""
        nmin = self.node_min[node]
        nmax = self.node_max[node]
        return (max(nmin[0] - x, 0.0, x - nmax[0]),
                max(nmin[1] - y, 0.0, y - nmax[1]),
                max(x - nmin[0], nmax[0] - x),
                max(y - nmin[1], nmax[1] - y))

    def _node_d2_bounds(self, node: int, x: float, y: float) -> tuple[float, float]:
        """(min, max) :func:`squared_norm` from ``(x, y)`` over the node's box.

        Float subtraction, squaring and addition are monotone, so every
        point under the node has a squared norm between these two: pruning
        on the first and bulk-accepting on the second give exactly the
        answer of the per-point :func:`within` test.
        """
        dx_min, dy_min, dx_max, dy_max = self._node_gaps(node, x, y)
        return (float(squared_norm(dx_min, dy_min)),
                float(squared_norm(dx_max, dy_max)))

    # -- range queries -------------------------------------------------------

    def _range_positions(self, x: float, y: float, radius: float) -> np.ndarray:
        """Positions (into the reordered array) of points within ``radius``."""
        hits: list[np.ndarray] = []
        stack = [0]
        while stack:
            node = stack.pop()
            d2min, d2max = self._node_d2_bounds(node, x, y)
            if not within(d2min, radius):
                continue
            start, stop = self.node_start[node], self.node_stop[node]
            if within(d2max, radius):
                hits.append(np.arange(start, stop))
                continue
            if self.is_leaf(node):
                block = self._sorted_points[start:stop]
                d2 = squared_norm(block[:, 0] - x, block[:, 1] - y)
                sel = np.flatnonzero(within(d2, radius)) + start
                if sel.size:
                    hits.append(sel)
                continue
            left, right = self.children(node)
            stack.append(left)
            stack.append(right)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(hits)

    def range_indices(self, center, radius: float) -> np.ndarray:
        """Original indices of points within ``radius`` of ``center``."""
        radius = check_positive(radius, "radius")
        x, y = as_center(center)
        return self.indices[self._range_positions(x, y, radius)]

    def range_count(self, center, radius: float) -> int:
        """Number of points within ``radius``; whole-node hits are O(1)."""
        radius = check_positive(radius, "radius")
        x, y = as_center(center)
        total = 0
        stack = [0]
        while stack:
            node = stack.pop()
            d2min, d2max = self._node_d2_bounds(node, x, y)
            if not within(d2min, radius):
                continue
            if within(d2max, radius):
                total += self.node_count(node)
                continue
            if self.is_leaf(node):
                block = self.node_points(node)
                d2 = squared_norm(block[:, 0] - x, block[:, 1] - y)
                total += int(np.count_nonzero(within(d2, radius)))
                continue
            left, right = self.children(node)
            stack.append(left)
            stack.append(right)
        return total

    def neighbor_distances(self, center, radius: float) -> np.ndarray:
        """Unsorted distances to every point within ``radius`` of ``center``."""
        radius = check_positive(radius, "radius")
        return np.sqrt(self.neighbor_d2(center, radius))

    def neighbor_d2(self, center, radius: float) -> np.ndarray:
        """Unsorted squared distances of every point within ``radius >= 0``."""
        radius = check_non_negative(radius, "radius")
        x, y = as_center(center)
        pos = self._range_positions(x, y, radius)
        if pos.size == 0:
            return np.empty(0, dtype=np.float64)
        block = self._sorted_points[pos]
        return squared_norm(block[:, 0] - x, block[:, 1] - y)

    # -- nearest neighbours ----------------------------------------------------

    def knn(self, center, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``k`` nearest neighbours of ``center``.

        Returns ``(distances, indices)`` sorted by ascending distance.  If
        ``k`` exceeds the number of points, all points are returned.
        """
        k = int(k)
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        x, y = as_center(center)
        k = min(k, self.points.shape[0])

        # Max-heap of the best k found so far, stored as (-dist2, position).
        heap: list[tuple[float, int]] = []

        # Best-first node traversal ordered by min distance to the node box.
        node_heap: list[tuple[float, int]] = [(0.0, 0)]
        while node_heap:
            dmin, node = heapq.heappop(node_heap)
            if len(heap) == k and dmin * dmin >= -heap[0][0]:
                break
            if self.is_leaf(node):
                start, stop = self.node_start[node], self.node_stop[node]
                block = self._sorted_points[start:stop]
                d2 = (block[:, 0] - x) ** 2 + (block[:, 1] - y) ** 2
                for offset, dist2 in enumerate(d2):
                    if len(heap) < k:
                        heapq.heappush(heap, (-float(dist2), start + offset))
                    elif dist2 < -heap[0][0]:
                        heapq.heapreplace(heap, (-float(dist2), start + offset))
                continue
            for child in self.children(node):
                dx_min, dy_min, _, _ = self._node_gaps(child, x, y)
                cmin = float(np.hypot(dx_min, dy_min))
                if len(heap) < k or cmin * cmin < -heap[0][0]:
                    heapq.heappush(node_heap, (cmin, child))

        items = sorted((-negd2, pos) for negd2, pos in heap)
        dists = np.sqrt(np.array([d2 for d2, _ in items], dtype=np.float64))
        idx = self.indices[np.array([pos for _, pos in items], dtype=np.int64)]
        return dists, idx

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KDTree(n={len(self)}, nodes={self.n_nodes}, leaf_size={self.leaf_size})"
