"""Naive KDV: the O(XYn) baseline of Definition 1.

Evaluates the kernel density function at every pixel centre against every
data point.  This is the algorithm "off-the-shelf software packages" use —
the paper's motivating inefficiency — and the exactness reference every
accelerated backend is tested against.

It is also the library's instance of the paper's parallel/hardware
family (the GPU/FPGA methods the tutorial surveys [50, 67, 105, 107]):
the pixel grid is split into row bands that run on the shared executor
(:mod:`repro.parallel`).  NumPy releases the GIL inside its vectorised
kernels, so the ``thread`` backend gives real speedup without pickling.
The band split depends on the problem only and each band writes a
disjoint output slice, so the result and the trace are the same for
every worker count and backend.

Every kernel but the Gaussian is gathered elementwise in a fixed 16 row
bands: within a band the pixels go in chunks sized so one ``(chunk, n)``
float64 temporary stays within a fixed byte budget, so memory stays
bounded however many points there are.

The Gaussian ``exp(-d^2/b^2)`` factorises as ``exp(-dx^2/b^2) *
exp(-dy^2/b^2)`` — the computational sharing of the sweep line (SLAM
[32]) applied to the kernel the sweep cannot take.  Its gather never
forms the ``n * X * Y`` kernel values: the sum is one dense product of
an x-factor table (pixel columns by points, times the weights) and a
y-factor table (points by pixel rows), the regular arithmetic the
hardware family exploits.  That product is cut into BLAS products of
about the same size in all three dimensions (``tx`` x-rows, ``k``
points, ``ty`` y-rows), all sized from the problem.  Per chunk of
points the two tables are built once, in four passes where the
bandwidth keeps every factor normal; each y-band takes one stacked
product over (``k``-point slice, x-tile), and its slices are added in
point order.  Workers take runs of whole y-bands, so each builds the
x-table once.  Factors below ``sqrt(DBL_MIN)`` are set to zero, so no
product is subnormal.  The result is exact up to float64 round-off but
not bit-identical to the elementwise formula:
``|F_hat - F| <= 1e-12 * F + sqrt(DBL_MIN) * sum(max(w_i, 1))``, which
is ``n * sqrt(DBL_MIN)`` unweighted.  It is bit-identical for every
worker count, backend and BLAS thread count.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from ... import obs
from ...parallel import parallel_starmap, resolve_workers
from .base import KDVProblem

__all__ = ["kde_naive"]

#: Row bands of the elementwise gather: a constant, so the serial run and
#: every k-worker run execute the same chunks.  It is also the ceiling on
#: useful workers there.
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

    The pixel rows are split into bands that depend on the problem only:
    :data:`_BANDS` of them for the elementwise gather, one task each, and
    the Gaussian's y-bands of :func:`_tiling`, one run of whole bands per
    worker, so each worker builds the x-table once.  Callers open the
    span: ``kdv.bands`` here, ``stkdv.frame`` for a naive STKDV frame,
    which gathers serially inside its own worker.
    """
    ny = len(ys)
    if problem.kernel.name == "gaussian":
        tiling = _tiling(problem.n, len(xs), ny)
        ty = tiling[3]
        bands = _band_count(True, problem.n, len(xs), ny)
        spans = [(int(run[0]) * ty, min(ny, (int(run[-1]) + 1) * ty))
                 for run in np.array_split(
                     np.arange(bands), min(resolve_workers(workers), bands))]
        task = partial(_separable, tiling)
        obs.count("kdv.factor_evals", problem.n * (len(xs) + ny))
    else:
        edges = np.linspace(0, ny, min(_BANDS, ny) + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])
                 if b > a]
        task = _elementwise
    parts = parallel_starmap(  # reprolint: disable=RPR015 (callers' span)
        task,
        [(problem, xs, ys, span) for span in spans],
        workers=workers,
        backend=backend,
    )
    values = np.empty((len(xs), ny), dtype=np.float64)
    for (j_lo, j_hi), part in zip(spans, parts):
        values[:, j_lo:j_hi] = part
    return values


def _elementwise(problem: KDVProblem, xs: np.ndarray, ys: np.ndarray,
                 span: tuple[int, int]) -> np.ndarray:
    """One band's kernel sums, one kernel value per point-pixel pair.

    Each pixel's sum is one row reduction over all points, so the result
    does not depend on how the pixels are chunked or banded.
    """
    j_lo, j_hi = span
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


def _tiling(n: int, nx: int, ny: int) -> tuple[int, int, int, int]:
    """``(chunk, k, tx, ty)`` of the Gaussian gather, from the problem only.

    Each BLAS product multiplies ``tx`` x-rows by ``ty`` y-rows over ``k``
    points.  ``tx`` and ``ty`` cut the grid into near-equal tiles of at
    most the cube root of :data:`_PRODUCT_MACS` and at least 2, so every
    product is a matrix product: OpenBLAS threads a matrix-vector
    product or a dot at far smaller sizes.  ``k`` fills the product
    budget.  The grid is padded to whole tiles and bands.  A chunk is
    the most whole ``k``-slices whose two factor tables fit
    :data:`_CHUNK_BYTES`, or the fewest that hold all ``n`` points.
    """
    side = 1 << (_PRODUCT_MACS.bit_length() - 1) // 3
    tx, ty = (max(2, -(-size // -(-size // side))) for size in (nx, ny))
    padded = tx * -(-nx // tx) + ty * -(-ny // ty)
    budget = max(1, _CHUNK_BYTES // (8 * padded))
    k = max(1, min(budget, n, _PRODUCT_MACS // (tx * ty)))
    return k * max(1, min(-(-n // k), budget // k)), k, tx, ty


def _band_count(gaussian: bool, n: int, nx: int, ny: int) -> int:
    """Row bands of the gather: the most workers it can use at once."""
    if gaussian:
        return -(-ny // _tiling(n, nx, ny)[3])
    return min(_BANDS, ny)


def _padded(centres: np.ndarray, tile: int) -> np.ndarray:
    """``centres`` extended to whole tiles by repeating the last one."""
    return np.concatenate([centres, np.repeat(centres[-1:],
                                              -len(centres) % tile)])


def _separable(tiling: tuple[int, int, int, int], problem: KDVProblem,
               xs: np.ndarray, ys: np.ndarray,
               span: tuple[int, int]) -> np.ndarray:
    """Gaussian kernel sums of a run of whole y-bands.

    Per chunk of points: one x-table (pixel columns by points) and the
    run's y-table (points by pixel rows), then per y-band one stacked
    product over (``k``-point slice, x-tile) whose slices are added in
    point order.  The padding points of a chunk's last slice have zero
    y-factors; padding rows and columns of the grid are cut off at the
    end.  Every band runs the same BLAS calls in any run, so the bits do
    not depend on the executor.  The buffers are allocated once for all
    chunks.
    """
    chunk, k, tx, ty = tiling
    pts, weights = problem.points, problem.weights
    scale = -1.0 / (problem.bandwidth * problem.bandwidth)
    j_lo, j_hi = span
    cx, cy = _padded(xs, tx), _padded(ys[j_lo:j_hi], ty)
    tiles, bands = len(cx) // tx, len(cy) // ty
    fx = np.empty((len(cx), chunk))
    fy = np.empty((chunk, len(cy)))
    scratch = np.empty(max(len(cx), len(cy)) * chunk)
    products = np.empty((chunk // k, tiles, tx, ty))
    reduced = np.empty((len(cx), ty))
    coords = np.empty((2 if weights is None else 3, chunk))

    values = np.zeros((bands, len(cx), ty))
    for start in range(0, pts.shape[0], chunk):
        m = min(chunk, pts.shape[0] - start)
        s = -(-m // k)
        p = coords[:, :s * k]
        p[:2, :m] = pts[start:start + m].T
        p[:2, m:] = p[:2, m - 1:m]  # finite padding, zeroed below
        if weights is not None:
            p[2, :m] = weights[start:start + m]
            p[2, m:] = 0.0
        _factors(cx[:, None], p[0][None, :], scale, fx[:, :s * k], scratch,
                 None if weights is None else p[2][None, :])
        _factors(p[1][:, None], cy[None, :], scale, fy[:s * k], scratch)
        fy[m:s * k] = 0.0
        stack = fx[:, :s * k].reshape(tiles, tx, s, k).transpose(2, 0, 1, 3)
        for band in range(bands):
            rows = fy[:s * k, band * ty:(band + 1) * ty]
            np.matmul(stack, rows.reshape(s, 1, k, ty), out=products[:s])
            np.add.reduce(products[:s].reshape(s, -1, ty), axis=0,
                          out=reduced)
            values[band] += reduced
    grid = values.transpose(1, 0, 2).reshape(len(cx), len(cy))
    return grid[:len(xs), :j_hi - j_lo]


def _factors(a: np.ndarray, b: np.ndarray, scale: float, out: np.ndarray,
             scratch: np.ndarray, weights=None) -> None:
    """``out = w * exp(scale * (a - b)**2)`` broadcast over a column of
    pixel centres and a row of point coordinates (or the reverse), with
    entries below :data:`_TINY` set to zero.

    The clamp to :data:`_EXP_FLOOR` and the zeroing run only where the
    coordinates and weights can reach them: the farthest centre-point
    distance is rounded by the same operations as the table, so no
    entry's exponent lies below it, and a skipped step would not have
    changed a bit.  The zeroing is a multiply by a 0/1 table, not a
    masked store: a store costs ~10x more where the mask mixes values.
    """
    np.subtract(a, b, out=out)
    np.square(out, out=out)
    np.multiply(out, scale, out=out)
    far = max(a.max() - b.min(), b.max() - a.min())
    lowest = scale * (far * far)
    if lowest < _EXP_FLOOR:
        np.maximum(out, _EXP_FLOOR, out=out)
        lowest = _EXP_FLOOR
    np.exp(out, out=out)
    # The smallest entry, with a factor 2 for the round-off of exp.
    least = 0.5 * math.exp(lowest)
    if weights is not None:
        np.multiply(out, weights, out=out)
        positive = weights[weights > 0.0]
        least *= positive.min() if positive.size else math.inf
    if least < _TINY:
        mask = scratch[:out.size].reshape(out.shape)
        np.greater_equal(out, _TINY, out=mask)
        np.multiply(out, mask, out=out)
