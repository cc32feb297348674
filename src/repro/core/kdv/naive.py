"""Naive KDV: the O(XYn) baseline of Definition 1.

Evaluates the kernel density function at every pixel centre against every
data point.  This is the algorithm "off-the-shelf software packages" use —
the paper's motivating inefficiency — and the exactness reference every
accelerated backend is tested against.

It is also the library's instance of the paper's parallel/hardware
family (the GPU/FPGA methods the tutorial surveys [50, 67, 105, 107]):
the pixel grid is split into a fixed number of row bands that run on the
shared executor (:mod:`repro.parallel`).  NumPy releases the GIL inside
its vectorised kernels, so the ``thread`` backend gives real speedup
without pickling.  The band split depends on the problem only and each
band writes a disjoint output slice, so the result and the trace are the
same for every worker count and backend.

Within a band the pixels are gathered in chunks sized so one
``(chunk, n)`` float64 temporary stays within a fixed byte budget, so
memory stays bounded however many points there are.
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ...parallel import parallel_starmap
from .base import KDVProblem

__all__ = ["kde_naive"]

#: Row bands per grid: a constant, so the serial run and every k-worker
#: run execute the same chunks.  It is also the ceiling on useful workers.
_BANDS = 16

#: Bytes of one ``(chunk, n)`` float64 temporary in the gather.
_CHUNK_BYTES = 2 << 20


def kde_naive(problem: KDVProblem, workers: int | None = None,
              backend: str | None = None):
    """Exact KDV by brute-force kernel summation.

    Parameters
    ----------
    problem:
        The validated KDV instance.
    workers, backend:
        Executor settings for the row bands (see :mod:`repro.parallel`;
        ``None`` uses the shared defaults).  They change wall time only.

    Returns
    -------
    :class:`~repro.raster.DensityGrid` of raw kernel sums (Equation 1 with
    ``w = 1``; apply :meth:`KDVProblem.normalization` for a density).
    """
    xs, ys = problem.pixel_centers()
    ny = problem.ny
    edges = np.linspace(0, ny, min(_BANDS, ny) + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    with obs.span("kdv.bands"):
        results = parallel_starmap(
            _gather,
            [(problem, xs, ys[j_lo:j_hi]) for j_lo, j_hi in spans],
            workers=workers,
            backend=backend,
        )
    values = np.empty((problem.nx, ny), dtype=np.float64)
    for (j_lo, j_hi), band in zip(spans, results):
        values[:, j_lo:j_hi] = band
    return problem.make_grid(values)


def _gather(problem: KDVProblem, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact ``(len(xs), len(ys))`` kernel sums at the pixel centres.

    Each pixel's sum is one row reduction over all points, so the result
    does not depend on how the pixels are chunked or banded.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    pts = problem.points
    weights = problem.weights
    chunk = max(1, _CHUNK_BYTES // (8 * pts.shape[0]))

    out = np.empty(queries.shape[0], dtype=np.float64)
    for start in range(0, queries.shape[0], chunk):
        q = queries[start:start + chunk]
        # Difference form, NOT the expanded |q|^2 + |p|^2 - 2 q.p: the
        # expansion loses ulps to cancellation exactly where d ~ the
        # kernel-support boundary, which silently flips boundary pixels —
        # this is the exactness reference, so it must get those right.
        d2 = (q[:, 0][:, None] - pts[:, 0][None, :]) ** 2 + (
            q[:, 1][:, None] - pts[:, 1][None, :]
        ) ** 2
        vals = problem.kernel.evaluate_sq(d2, problem.bandwidth)
        # An elementwise product and row sum, not ``vals @ weights``: BLAS
        # gemv treats the trailing rows of a block differently, which
        # would make the bits depend on the chunk and band split.
        if weights is not None:
            vals = vals * weights
        out[start:start + q.shape[0]] = vals.sum(axis=1)
    obs.count("kdv.distance_evals", queries.shape[0] * pts.shape[0])
    return out.reshape(len(xs), len(ys))
