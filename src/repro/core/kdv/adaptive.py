"""Adaptive-bandwidth KDV (the variable-kernel method of [107]).

Fixed-bandwidth KDV oversmooths dense regions and undersmooths sparse
ones.  The adaptive estimator of Abramson/Silverman — the method the
GPU-accelerated system [107] in the paper's §2.2 survey implements —
gives every point its own bandwidth

    b_i = b0 * (pilot(p_i) / g) ** (-alpha),

where ``pilot`` is a fixed-bandwidth pilot density at the data points,
``g`` is its geometric mean, and ``alpha`` (usually 1/2) is the
sensitivity.  Dense clusters get sharp kernels, sparse outskirts get wide
ones.

The evaluation reuses the cutoff *scatter* strategy: each point scatters
onto the pixel patch of its own support radius, so cost stays
O(sum_i patch_i + XY).
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import check_in_range, check_positive
from ...errors import ParameterError
from .base import KDVProblem, effective_radius

__all__ = ["adaptive_bandwidths", "kde_adaptive"]


def adaptive_bandwidths(
    problem: KDVProblem,
    alpha: float = 0.5,
    pilot_bandwidth: float | None = None,
    clip: tuple[float, float] = (0.2, 5.0),
) -> np.ndarray:
    """Per-point bandwidths from a pilot density (Abramson's rule).

    Parameters
    ----------
    problem:
        The KDV instance; ``problem.bandwidth`` is the base bandwidth b0.
    alpha:
        Sensitivity exponent in [0, 1]; 0 reduces to fixed bandwidth,
        0.5 is Abramson's square-root law.
    pilot_bandwidth:
        Bandwidth of the pilot estimate (defaults to b0).
    clip:
        Relative clamp ``(lo, hi)``: each ``b_i`` is kept within
        ``[lo * b0, hi * b0]`` so isolated points cannot blow up the
        support radius.
    """
    alpha = check_in_range(alpha, "alpha", 0.0, 1.0)
    lo, hi = float(clip[0]), float(clip[1])
    if not (0.0 < lo <= 1.0 <= hi):
        raise ParameterError(f"clip must satisfy 0 < lo <= 1 <= hi, got {clip}")
    b0 = problem.bandwidth
    pilot_b = b0 if pilot_bandwidth is None else check_positive(
        pilot_bandwidth, "pilot_bandwidth"
    )

    # Pilot density at the data points (leave-self-in is fine for a pilot).
    kernel = problem.kernel
    pts = problem.points
    radius = effective_radius(kernel, pilot_b)
    from ...index import GridIndex

    index = GridIndex.for_radius(pts, radius)
    pilot = np.empty(pts.shape[0], dtype=np.float64)
    for start, bounds, _, d2 in index.neighbor_blocks(pts, radius):
        k = kernel.evaluate(np.sqrt(d2), pilot_b)
        for i, (s0, s1) in enumerate(zip(bounds[:-1], bounds[1:]), start):
            pilot[i] = float(k[s0:s1].sum())
    pilot = np.maximum(pilot, 1e-300)

    log_g = float(np.mean(np.log(pilot)))
    factors = np.exp(-alpha * (np.log(pilot) - log_g))
    factors = np.clip(factors, lo, hi)
    return b0 * factors


def kde_adaptive(
    problem: KDVProblem,
    alpha: float = 0.5,
    pilot_bandwidth: float | None = None,
    clip: tuple[float, float] = (0.2, 5.0),
):
    """Adaptive-bandwidth KDV by per-point scatter.

    Returns a :class:`~repro.raster.DensityGrid` of
    ``sum_i K(dist(q, p_i); b_i)`` with ``b_i`` from
    :func:`adaptive_bandwidths`.  Point weights are honoured.
    """
    bandwidths = adaptive_bandwidths(
        problem, alpha=alpha, pilot_bandwidth=pilot_bandwidth, clip=clip
    )

    xs, ys = problem.pixel_centers()
    dx, dy = problem.bbox.pixel_size(problem.nx, problem.ny)
    x0, y0 = xs[0], ys[0]
    nx, ny = problem.nx, problem.ny
    kernel = problem.kernel
    pts = problem.points
    weights = problem.weights

    values = np.zeros((nx, ny), dtype=np.float64)
    scatters = patch_pixels = 0
    for row in range(pts.shape[0]):
        b = float(bandwidths[row])
        radius = effective_radius(kernel, b)
        px, py = pts[row]
        ix_lo = max(int(np.ceil((px - radius - x0) / dx)), 0)
        ix_hi = min(int(np.floor((px + radius - x0) / dx)), nx - 1)
        iy_lo = max(int(np.ceil((py - radius - y0) / dy)), 0)
        iy_hi = min(int(np.floor((py + radius - y0) / dy)), ny - 1)
        if ix_lo > ix_hi or iy_lo > iy_hi:
            continue
        local_x = xs[ix_lo:ix_hi + 1] - px
        local_y = ys[iy_lo:iy_hi + 1] - py
        d2 = local_x[:, None] ** 2 + local_y[None, :] ** 2
        patch = kernel.evaluate_sq(d2, b)
        if radius < kernel.support_radius(b):
            patch = np.where(d2 <= radius * radius, patch, 0.0)
        if weights is not None:
            patch = patch * weights[row]
        values[ix_lo:ix_hi + 1, iy_lo:iy_hi + 1] += patch
        scatters += 1
        patch_pixels += patch.size
    obs.count("kdv.scatters", scatters)
    obs.count("kdv.patch_pixels", patch_pixels)
    return problem.make_grid(values)
