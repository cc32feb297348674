"""Spatial index substrate: uniform grids, kd-tree, and range tree.

All structures are implemented from scratch (the paper's
range-query-based methods cite kd-trees [21] and uniform grids as the
standard carriers).  The grids and the kd-tree expose a common core:

* ``range_indices(center, radius)`` / ``range_count(center, radius)``
  (a non-finite centre raises :class:`~repro.errors.DataError`)
* ``neighbor_distances(center, radius)`` and the squared
  ``neighbor_d2(center, radius)``
* on both grids (``GridIndex``, ``DynamicGridIndex``), the batched
  ``neighbor_pairs(queries, radius)`` and the id-yielding ``neighbors`` /
  ``neighbor_blocks``, all through one vectorised cell-block kernel that
  also answers the single-point queries as a batch of one
* the module-level ``threshold_counts(index, queries, thresholds)`` over
  either grid — the one multi-threshold pair counter of the planar
  K-function family — and ``threshold_totals``, its sum over the queries
  counted without listing the pairs
* node-level traversal over bounding boxes (kd-tree) — carrier for the
  dual-tree KDV refinement and its ``bounds`` mode.

Every query decides membership with the library's single within-distance
test, :func:`repro.geometry.distance.within`, so all structures (and the
naive pair counts) agree on boundary and underflow cases.
"""

from .counts import QUERY_BLOCK, threshold_counts, threshold_totals
from .dynamic import DynamicGridIndex
from .grid import GridIndex
from .kdtree import KDTree
from .rangetree import RangeTree

__all__ = ["QUERY_BLOCK", "DynamicGridIndex", "GridIndex", "KDTree",
           "RangeTree", "threshold_counts", "threshold_totals"]
