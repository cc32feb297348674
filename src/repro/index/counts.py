"""Multi-threshold neighbour counts over any index with ``neighbor_d2``.

The one pair counter behind the planar K-function family (global,
border-corrected, cross, local and streamed K): paper §2.3's
range-query-based method with multi-threshold batching.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_points
from ..errors import ParameterError

__all__ = ["threshold_counts"]


def threshold_counts(index, queries, thresholds) -> np.ndarray:
    """``(nq, D)`` int64 counts of indexed points within each threshold.

    One ``index.neighbor_d2`` walk per query at the largest threshold,
    then ``searchsorted`` of the squared thresholds over the sorted squared
    distances: the :func:`~repro.geometry.distance.within` test at all
    ``D`` thresholds for the price of one range query.  ``index`` is any
    :class:`GridIndex`, :class:`KDTree` or :class:`DynamicGridIndex`; a
    zero threshold counts coincident points only.
    """
    q = as_points(queries, name="queries", allow_empty=True)
    ts = np.asarray(thresholds, dtype=np.float64).ravel()
    if ts.size == 0:
        raise ParameterError("thresholds must contain at least one value")
    rmax = max(float(ts.max()), 0.0)
    t2 = np.copysign(ts * ts, ts)  # a negative threshold admits nothing
    out = np.empty((q.shape[0], ts.size), dtype=np.int64)
    for i, row in enumerate(q):
        d2 = np.sort(index.neighbor_d2(row, rmax))
        out[i] = np.searchsorted(d2, t2, side="right")
    return out
