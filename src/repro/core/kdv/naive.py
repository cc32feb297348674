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

Every kernel but the Gaussian is gathered elementwise: within a band the
pixels go in chunks sized so one ``(chunk, n)`` float64 temporary stays
within a fixed byte budget, so memory stays bounded however many points
there are.

The Gaussian ``exp(-d^2/b^2)`` factorises as ``exp(-dx^2/b^2) *
exp(-dy^2/b^2)`` — the computational sharing of the sweep line (SLAM
[32]) applied to the kernel the sweep cannot take.  Its gather never
forms the ``n * X * Y`` kernel values.  For each fixed chunk of points
it builds an x-factor table ``(X, P)`` once, times the weights; each row
band builds only its own y-factor rows and adds one BLAS product into
its output columns.  Chunks are added in point order.  Each worker takes
a run of whole bands, so the x-table is built once per worker, not per
band.  Factors below ``sqrt(DBL_MIN)`` are set to zero, so no product
is subnormal.  The result is exact up to float64 round-off but not
bit-identical to the elementwise formula:
``|F_hat - F| <= 1e-12 * F + sqrt(DBL_MIN) * sum(max(w_i, 1))``, which
is ``n * sqrt(DBL_MIN)`` unweighted.  It is bit-identical for every
worker count and backend.
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from ... import obs
from ...parallel import parallel_starmap, resolve_workers
from .base import KDVProblem

__all__ = ["kde_naive"]

#: Row bands per grid: a constant, so the serial run and every k-worker
#: run execute the same chunks.  It is also the ceiling on useful workers.
_BANDS = 16

#: Bytes of one ``(chunk, n)`` float64 temporary in the elementwise
#: gather, and of the two factor tables of one Gaussian point chunk.
_CHUNK_BYTES = 2 << 20

#: Multiply-adds in one BLAS product of the Gaussian gather.  OpenBLAS
#: runs a product this small on the calling thread, so only ``workers``
#: spreads the gather over cores: a product never waits for a BLAS
#: thread (on a busy 2-vCPU host that wait cost ~9x the product), and
#: its bits do not depend on the BLAS thread count.
_PRODUCT_MACS = 1 << 18

#: ``sqrt(DBL_MIN) = 2**-511``: the product of two factors at or above
#: it is a normal float64.
_TINY = float(np.sqrt(sys.float_info.min))

#: Floor on the exponent of a factor.  NumPy's ``exp`` is ~10x slower
#: per value where its result is not normal (below about ``-708``), and
#: ``exp(-700) * w < _TINY * w``, so raising an exponent to the floor
#: stays within the stated bound.
_EXP_FLOOR = -700.0


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
    with obs.span("kdv.bands"):
        values = _gather(problem, xs, ys, workers, backend)
    return problem.make_grid(values)


def _gather(problem: KDVProblem, xs: np.ndarray, ys: np.ndarray,
            workers: int | None = 1, backend: str | None = None) -> np.ndarray:
    """Exact ``(len(xs), len(ys))`` kernel sums at the pixel centres.

    The pixel rows are split into at most :data:`_BANDS` bands; the split
    depends on ``len(ys)`` only.  Each task takes a run of whole bands:
    one band per task for the elementwise gather, and one run per worker
    for the Gaussian, so it builds one x-table per worker, not per band.
    Callers open the span: ``kdv.bands`` here, ``stkdv.frame`` for a
    naive STKDV frame, which gathers serially inside its own worker.
    """
    ny = len(ys)
    edges = np.linspace(0, ny, min(_BANDS, ny) + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    separable = problem.kernel.name == "gaussian"
    if separable:
        runs = np.array_split(np.arange(len(spans)),
                              min(resolve_workers(workers), len(spans)))
        task = partial(_separable, *_tiling(problem.n, len(xs), spans))
    else:
        runs = [[k] for k in range(len(spans))]
        task = _elementwise
    parts = parallel_starmap(  # reprolint: disable=RPR015 (callers' span)
        task,
        [(problem, xs, ys, [spans[k] for k in run]) for run in runs],
        workers=workers,
        backend=backend,
    )
    if separable:
        obs.count("kdv.factor_evals", problem.n * (len(xs) + ny))
    values = np.empty((len(xs), ny), dtype=np.float64)
    for run, part in zip(runs, parts):
        values[:, spans[run[0]][0]:spans[run[-1]][1]] = part
    return values


def _elementwise(problem: KDVProblem, xs: np.ndarray, ys: np.ndarray,
                 spans: list) -> np.ndarray:
    """One band's kernel sums, one kernel value per point-pixel pair.

    Each pixel's sum is one row reduction over all points, so the result
    does not depend on how the pixels are chunked or banded.
    """
    ((j_lo, j_hi),) = spans
    ys = ys[j_lo:j_hi]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    queries = np.column_stack([gx.ravel(), gy.ravel()])
    pts = problem.points
    weights = problem.weights
    chunk = max(1, _CHUNK_BYTES // (8 * pts.shape[0]))

    out = np.empty(queries.shape[0], dtype=np.float64)
    # One workspace for every chunk: the squared distances, which the
    # kernel overwrites with its values, and the y term.
    rows = min(chunk, queries.shape[0])
    d2_buf = np.empty((rows, pts.shape[0]))
    dy_buf = np.empty((rows, pts.shape[0]))
    for start in range(0, queries.shape[0], chunk):
        q = queries[start:start + chunk]
        m = q.shape[0]
        # Difference form, NOT the expanded |q|^2 + |p|^2 - 2 q.p: the
        # expansion loses ulps to cancellation exactly where d ~ the
        # kernel-support boundary, which silently flips boundary pixels —
        # this is the exactness reference, so it must get those right.
        d2 = np.subtract(q[:, 0][:, None], pts[:, 0][None, :], out=d2_buf[:m])
        dy = np.subtract(q[:, 1][:, None], pts[:, 1][None, :], out=dy_buf[:m])
        np.add(np.square(d2, out=d2), np.square(dy, out=dy), out=d2)
        vals = problem.kernel.evaluate_sq(d2, problem.bandwidth, out=d2)
        # An elementwise product and row sum, not ``vals @ weights``: BLAS
        # gemv treats the trailing rows of a block differently, which
        # would make the bits depend on the chunk and band split.
        if weights is not None:
            vals *= weights
        out[start:start + m] = vals.sum(axis=1)
    obs.count("kdv.distance_evals", queries.shape[0] * pts.shape[0])
    return out.reshape(len(xs), len(ys))


def _tiling(n: int, nx: int, spans: list) -> tuple[int, int, int]:
    """``(chunk, tiles, tile)`` of the Gaussian gather, from the problem only.

    A chunk's two factor tables fill :data:`_CHUNK_BYTES`.  Each product
    multiplies ``tile`` x-rows by one band's columns over the chunk; the
    x-table is padded with zero rows to ``tiles`` whole tiles.
    """
    ny = spans[-1][1]
    chunk = max(1, min(n, _CHUNK_BYTES // (8 * (nx + ny))))
    widest = max(j_hi - j_lo for j_lo, j_hi in spans)
    tiles = -(-nx // max(1, _PRODUCT_MACS // (chunk * widest)))
    return chunk, tiles, -(-nx // tiles)


def _separable(chunk: int, tiles: int, tile: int, problem: KDVProblem,
               xs: np.ndarray, ys: np.ndarray, spans: list) -> np.ndarray:
    """Gaussian kernel sums of a run of adjacent bands.

    Per chunk of points: one x-table, then each band's own y-rows and one
    product into its columns.  Chunks are added in point order, and every
    band runs the same BLAS calls in any run, so the bits do not depend
    on the executor.  The buffers are allocated once for all chunks.
    """
    pts, weights = problem.points, problem.weights
    nx = len(xs)
    scale = -1.0 / (problem.bandwidth * problem.bandwidth)
    j0, j1 = spans[0][0], spans[-1][1]
    fx = np.zeros((tiles * tile, chunk))
    fy = np.empty((j1 - j0, chunk))
    scratch = np.empty((max(nx, j1 - j0), chunk))
    products = np.empty((tiles * tile, j1 - j0))

    values = np.zeros((nx, j1 - j0))
    for start in range(0, pts.shape[0], chunk):
        p = pts[start:start + chunk]
        m = p.shape[0]
        _factors(xs, p[:, 0], scale, fx[:nx, :m], scratch[:nx, :m],
                 None if weights is None else weights[start:start + m])
        stack = fx[:, :m].reshape(tiles, tile, m)
        for a, b in ((a - j0, b - j0) for a, b in spans):
            _factors(ys[j0 + a:j0 + b], p[:, 1], scale, fy[a:b, :m],
                     scratch[:b - a, :m])
            band = np.matmul(stack, fy[a:b, :m].T,
                             out=products[:, a:b].reshape(tiles, tile, b - a))
            values[:, a:b] += band.reshape(-1, b - a)[:nx]
    return values


def _factors(centres: np.ndarray, coords: np.ndarray, scale: float,
             out: np.ndarray, scratch: np.ndarray, weights=None) -> None:
    """``out[i, p] = w_p * exp(scale * (centres[i] - coords[p])**2)``,
    with entries below :data:`_TINY` set to zero.

    The zeroing is a multiply by a 0/1 table, not a masked store: a store
    costs ~10x more where the mask mixes values.
    """
    np.subtract(centres[:, None], coords[None, :], out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, scale, out=out)
    np.maximum(out, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    if weights is not None:
        np.multiply(out, weights, out=out)
    np.greater_equal(out, _TINY, out=scratch)
    np.multiply(out, scratch, out=out)
