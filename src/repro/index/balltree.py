"""A ball-tree built from scratch.

The tutorial's function-approximation methods cite both kd-trees [21] and
ball-trees [71] as carrier index structures for the lower/upper kernel
bounds.  This ball-tree mirrors the :class:`~repro.index.kdtree.KDTree`
node API (``node_bounds``, ``node_count``, ``children``, ``node_points``)
so the bound-based KDV backend can run on either index.

Construction splits each node along the widest coordinate axis at the
median (a simple, robust strategy); each node stores a centroid and a
covering radius, which yield the triangle-inequality distance bounds.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_center, as_points, check_positive
from ..errors import ParameterError
from ..geometry.distance import search_reach, squared_norm, within

__all__ = ["BallTree"]

_NO_CHILD = -1


class BallTree:
    """Median-split ball-tree over planar points."""

    def __init__(self, points, leaf_size: int = 32):
        self.points = as_points(points)
        leaf_size = int(leaf_size)
        if leaf_size < 1:
            raise ParameterError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size

        n = self.points.shape[0]
        self.indices = np.arange(n, dtype=np.int64)

        starts: list[int] = []
        stops: list[int] = []
        lefts: list[int] = []
        rights: list[int] = []
        centers: list[np.ndarray] = []
        radii: list[float] = []

        pts = self.points
        idx = self.indices

        def new_node(start: int, stop: int) -> int:
            node = len(starts)
            block = pts[idx[start:stop]]
            center = block.mean(axis=0)
            radius = float(np.sqrt(((block - center) ** 2).sum(axis=1).max()))
            starts.append(start)
            stops.append(stop)
            lefts.append(_NO_CHILD)
            rights.append(_NO_CHILD)
            centers.append(center)
            radii.append(radius)
            return node

        root = new_node(0, n)
        stack = [root]
        while stack:
            node = stack.pop()
            start, stop = starts[node], stops[node]
            count = stop - start
            if count <= self.leaf_size or radii[node] == 0.0:
                continue
            block = pts[idx[start:stop]]
            extent = block.max(axis=0) - block.min(axis=0)
            dim = int(np.argmax(extent))
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
        self.node_center = np.asarray(centers, dtype=np.float64)
        self.node_radius = np.asarray(radii, dtype=np.float64)
        self._sorted_points = self.points[self.indices]

    # -- node-level API ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.node_start.shape[0])

    def node_count(self, node: int) -> int:
        return int(self.node_stop[node] - self.node_start[node])

    def is_leaf(self, node: int) -> bool:
        return self.node_left[node] == _NO_CHILD

    def children(self, node: int) -> tuple[int, int]:
        return int(self.node_left[node]), int(self.node_right[node])

    def node_points(self, node: int) -> np.ndarray:
        return self._sorted_points[self.node_start[node]:self.node_stop[node]]

    def node_point_indices(self, node: int) -> np.ndarray:
        return self.indices[self.node_start[node]:self.node_stop[node]]

    def node_bounds(self, node: int, x: float, y: float) -> tuple[float, float]:
        """Triangle-inequality (min, max) distance from a query to the ball."""
        cx, cy = self.node_center[node]
        d = float(np.hypot(x - cx, y - cy))
        r = float(self.node_radius[node])
        return max(d - r, 0.0), d + r

    # -- range queries ---------------------------------------------------------

    def range_indices(self, center, radius: float) -> np.ndarray:
        radius = check_positive(radius, "radius")
        x, y = as_center(center)
        # The triangle-inequality bounds round (hypot, the node radius), so
        # prune and bulk-accept only with a margin; the leaf test decides
        # every point the margins leave open.  Points within pass
        # ``dist <= reach``; points closer than ``inner`` pass ``within``.
        reach = search_reach(radius)
        inner = 2.0 * radius - reach
        hits: list[np.ndarray] = []
        stack = [0]
        while stack:
            node = stack.pop()
            dmin, dmax = self.node_bounds(node, x, y)
            margin = 1e-9 * dmax
            if dmin - margin > reach:
                continue
            start, stop = self.node_start[node], self.node_stop[node]
            if dmax + margin < inner:
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
        return self.indices[np.concatenate(hits)]

    def range_count(self, center, radius: float) -> int:
        return int(self.range_indices(center, radius).shape[0])

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BallTree(n={len(self)}, nodes={self.n_nodes}, leaf_size={self.leaf_size})"
