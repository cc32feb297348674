"""Naive KDV: the O(XYn) baseline of Definition 1.

Evaluates the kernel density function at every pixel centre against every
data point.  This is the algorithm "off-the-shelf software packages" use —
the paper's motivating inefficiency — and the exactness reference every
accelerated backend is tested against.

The pixel loop is chunked so memory stays bounded at ``chunk * n`` doubles
regardless of grid size.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import check_positive
from .base import KDVProblem

__all__ = ["kde_naive"]


def kde_naive(problem: KDVProblem, chunk_pixels: int = 4096):
    """Exact KDV by brute-force kernel summation.

    Parameters
    ----------
    problem:
        The validated KDV instance.
    chunk_pixels:
        Number of pixels whose distance rows are materialised at once.

    Returns
    -------
    :class:`~repro.raster.DensityGrid` of raw kernel sums (Equation 1 with
    ``w = 1``; apply :meth:`KDVProblem.normalization` for a density).
    """
    chunk_pixels = int(check_positive(chunk_pixels, "chunk_pixels"))
    xs, ys = problem.pixel_centers()
    return problem.make_grid(_gather(problem, xs, ys, chunk_pixels))


def _gather(problem: KDVProblem, xs: np.ndarray, ys: np.ndarray,
            chunk_pixels: int = 4096) -> np.ndarray:
    """Exact ``(len(xs), len(ys))`` kernel sums at the pixel centres.

    Each pixel's sum is one row reduction over all points, so the result
    does not depend on how the pixels are chunked or banded.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    pts = problem.points
    weights = problem.weights

    out = np.empty(queries.shape[0], dtype=np.float64)
    for start in range(0, queries.shape[0], chunk_pixels):
        q = queries[start:start + chunk_pixels]
        # Difference form, NOT the expanded |q|^2 + |p|^2 - 2 q.p: the
        # expansion loses ulps to cancellation exactly where d ~ the
        # kernel-support boundary, which silently flips boundary pixels —
        # this is the exactness reference, so it must get those right.
        d2 = (q[:, 0][:, None] - pts[:, 0][None, :]) ** 2 + (
            q[:, 1][:, None] - pts[:, 1][None, :]
        ) ** 2
        vals = problem.kernel.evaluate_sq(d2, problem.bandwidth)
        out[start:start + q.shape[0]] = (
            vals.sum(axis=1) if weights is None else vals @ weights
        )
    obs.count("kdv.distance_evals", queries.shape[0] * pts.shape[0])
    return out.reshape(len(xs), len(ys))
