"""Sweep-line KDV: the paper's computational-sharing method (SLAM [32]).

For the finite-support kernels that are polynomials in the squared
distance (uniform, Epanechnikov, quartic — exactly the kernel class the
paper says SLAM-style algorithms support), the kernel sum along one pixel
row is a *piecewise polynomial in x*:

    K(q, p) = sum_k c_k * (d^2)^k,    d^2 = (x - px)^2 + dy^2

so each point contributes a polynomial of degree ``2k_max`` in ``x`` over
the x-interval where it is within the support radius.  Sweeping a row from
left to right, a point adds its coefficients where the sweep enters its
interval and subtracts them where it leaves; a prefix sum along x turns
those events into the aggregate polynomial at every pixel, which is then
evaluated on the pixel lattice.

Local block bases.  The columns are cut into blocks of ``B = floor(2b/dx)``
pixels (at least 1).  Each point is expanded once, about the centre of
the block that holds it (its *home* block), so every coefficient that
does not depend on the row is computed once per point.  Each block owns a
window of its ``B`` columns plus the kernel's reach ``R = floor(b/dx +
1/2) + 1`` on each side.  Every row scatters its entries and exits into
the windows with ``np.bincount``, prefix-sums each window along x,
evaluates it in the block's basis (Horner) and overlap-adds the windows
into the row.  A point's offset from its block centre and a window
pixel's offset both stay within a few bandwidths, so the expansion
magnifies round-off by a constant instead of by ``(row width / b)^(2
k_max)``.  An integer active count goes through the same prefix sum: a
window pixel whose count is 0 is written as an exact 0, and residue
elsewhere is clamped to >= 0 (weights are validated non-negative, so every
window's true value is).  Rows are processed in batches sized from the
problem, so small bands do not pay one set of numpy calls per row.

Complexity: each of the ``Y`` rows costs O(X + n_band) where ``n_band`` is
the number of points within the bandwidth of the row — the O(Y(X + n))
bound the paper quotes for the state of the art [32].

Error bound.  Let ``W(q)`` and ``m(q)`` be the total weight and the number
of the points within ``4b + 2dx`` of pixel ``q`` in x and within ``b`` in
y, ``k`` the kernel's degree in d^2 (0 uniform, 1 Epanechnikov, 2
quartic), ``eps`` the float64 machine epsilon and ``L`` the largest
coordinate magnitude of the points and the window.  Then

    |f_sweep(q) - f(q)| <= ((2 m(q) + 32) 27^k + 4 (L/b + 1)) eps K(0) W(q)

where ``f`` is the exact kernel sum at the pixel centres.  ``27 = 2 + 5^2``
bounds a point's expansion, ``sum_j |a_j| |u|^j``, at every window pixel
with a nonzero count (there the pixel's and the point's offsets from the
block centre add up to at most 5 bandwidths);
``2 m + 32`` bounds the additions on the path of each coefficient: at
most ``2 m`` entries and exits, then the coefficients, Horner and the
overlap-add.  ``4 (L/b + 1)`` is the float uncertainty of coordinates of
size ``L`` at the support's edge, which any evaluation at those
coordinates shares; for the uniform kernel a point within round-off of
the edge may count as inside or outside.  A pixel no point reaches is
exactly 0, and no pixel is negative.  The bound is first-order and
loose — prefix-sum errors grow like ``sqrt(m)`` in practice — and
``tests/test_kdv_sweep.py`` checks it under hypothesis against an
elementwise float64 sum; measured errors are in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math

import numpy as np

from ... import obs
from ...errors import ParameterError
from .base import KDVProblem

__all__ = ["kde_sweep"]

#: Elements (row x point pairs plus window cells) per row batch: enough
#: to amortise a batch's numpy calls, few enough to stay in cache.
_BATCH_ELEMS = 1 << 14


def _local_terms(c: np.ndarray, pu: np.ndarray, w: np.ndarray | None):
    """The local expansion's coefficients as a function of the row.

    ``c`` are the kernel's ascending coefficients in d^2, ``pu`` the
    points' offsets from their block centres and ``w`` their weights
    (``None`` for unit weights), all in pixel units.  The row-independent
    pieces are computed here, once; the returned function maps a slice of
    the points and their ``(rows, points)`` squared row offsets ``a`` to
    the ascending coefficients in the block-local coordinate ``u``, one
    entry per power: a ``(rows, points)`` array, a ``(points,)`` array
    shared by every row, or a float shared by every point (the aggregate
    is then that float times the active count).
    """
    k_max = len(c) - 1
    unit = w is None
    w = 1.0 if unit else w
    if k_max == 0:  # uniform: constant c0
        c0w = c[0] * w
        return lambda sl, a: [c[0] if unit else c0w[sl]]
    if k_max == 1:  # epanechnikov: c0 + c1 * ((u - pu)^2 + a)
        const = w * (c[0] + c[1] * pu * pu)
        lin = -2.0 * c[1] * w * pu
        if unit:
            return lambda sl, a: [const[sl] + c[1] * a, lin[sl], c[1]]
        c1w = c[1] * w
        return lambda sl, a: [const[sl] + c1w[sl] * a, lin[sl], c1w[sl]]
    if k_max == 2:  # quartic: c0 + c1 q + c2 q^2, q = (u - pu)^2 + a
        pu2 = pu * pu
        wpu = w * pu
        sq = c[1] + 4.0 * c[2] * pu2
        cub = -4.0 * c[2] * wpu

        def terms(sl, a):
            s = pu2[sl] + a
            cols = [c[0] + s * (c[1] + c[2] * s),
                    wpu[sl] * (-2.0 * c[1] - 4.0 * c[2] * s),
                    sq[sl] + 2.0 * c[2] * s, cub[sl], c[2]]
            if not unit:
                cols[0] *= w[sl]
                cols[2] *= w[sl]
                cols[4] = c[2] * w[sl]
            return cols
        return terms
    raise ParameterError(f"unsupported polynomial degree {k_max}")  # pragma: no cover


def _row_batches(lo: list, hi: list, cells: int) -> list:
    """Cut the rows into batches of consecutive rows.

    A batch evaluates every (row, point) pair over the union of its rows'
    bands, so a batch grows while its pairs plus window cells stay within
    :data:`_BATCH_ELEMS` and its pairs stay within twice the in-band ones
    (plus a small allowance, so sparse rows still share one batch).
    """
    edges = [0]
    start, useful = 0, 0
    for j in range(len(lo)):
        useful += hi[j] - lo[j]
        rows = j - start + 1
        pairs = rows * (hi[j] - lo[start])
        if rows > 1 and (pairs + rows * cells > _BATCH_ELEMS
                         or pairs > 2 * useful + _BATCH_ELEMS // 16):
            edges.append(j)
            start, useful = j, hi[j] - lo[j]
    edges.append(len(lo))
    return edges


def kde_sweep(problem: KDVProblem):
    """Sweep-line KDV for polynomial finite-support kernels.

    Exact to the round-off bound in the module docstring.  Raises
    :class:`~repro.errors.ParameterError` for kernels without a
    squared-distance polynomial form (Gaussian etc.) — use the bound-based
    or cutoff backends for those, as the paper's §2.4 discussion notes.
    """
    coeffs = problem.kernel.poly_coeffs(problem.bandwidth)
    if coeffs is None:
        raise ParameterError(
            f"kernel {problem.kernel.name!r} is not polynomial in the squared "
            "distance; the sweep-line backend supports uniform, epanechnikov "
            "and quartic kernels"
        )
    xs, ys = problem.pixel_centers()
    dx, dy = problem.bbox.pixel_size(problem.nx, problem.ny)
    nx, ny = problem.nx, problem.ny
    # Everything below is in units of dx: the bandwidth is r pixels.
    r = problem.bandwidth / dx
    r2 = r * r
    coeffs = np.asarray(coeffs, dtype=np.float64) * dx ** (
        2.0 * np.arange(len(coeffs)))
    deg = 2 * (coeffs.shape[0] - 1)
    values = np.zeros((nx, ny), dtype=np.float64)

    # Block layout: B columns per block.  A block's window holds its B
    # columns plus R on each side, then an exit slot that no pixel reads;
    # windows are padded to a whole number of blocks for the overlap-add.
    block = min(max(1, math.floor(2.0 * r)), nx)
    reach = min(math.floor(r + 0.5) + 1, nx)
    width = block + 2 * reach
    spans = width // block + 1
    nblocks = -(-nx // block)
    cells = nblocks * spans * block
    u = np.arange(spans * block) - reach - 0.5 * (block - 1)

    # Only a point within the bandwidth of some pixel column and some
    # pixel row reaches a pixel.  Those are sorted by y, so each row's
    # band is a contiguous slice, and their row-independent terms computed.
    pts = problem.points
    px = (pts[:, 0] - xs[0]) / dx
    py = pts[:, 1] / dx
    yp = ys / dx
    row = np.clip(np.rint((pts[:, 1] - ys[0]) / dy), 0, ny - 1).astype(np.int64)
    slack = r + 1e-9 * (r + 1.0)
    order = np.flatnonzero(
        (np.abs(px - np.clip(np.rint(px), 0, nx - 1)) <= slack)
        & (np.abs(py - yp[row]) <= slack))
    order = order[np.argsort(py[order])]
    sy = py[order]
    px = px[order]
    home = np.clip(np.floor((px + 0.5) / block), 0, nblocks - 1)
    local = px - (home * block - reach)  # position in the home window
    pu = local - reach - 0.5 * (block - 1)  # offset from the block centre
    home_cell = home * (spans * block)
    terms = _local_terms(coeffs, pu,
                         None if problem.weights is None
                         else problem.weights[order])

    lo = np.searchsorted(sy, yp - r, side="left")
    hi = np.searchsorted(sy, yp + r, side="right")
    edges = _row_batches(lo.tolist(), hi.tolist(), cells)
    for j0, j1 in zip(edges[:-1], edges[1:]):
        sl = slice(lo[j0], hi[j1 - 1])
        if sl.start == sl.stop:
            continue
        rows = j1 - j0
        shape = (rows, nblocks, spans * block)
        size = rows * cells
        # Every (row, point) pair of the batch: a point outside a row's
        # band has no sqrt, so its events land in the exit slot, and its
        # coefficients are those of the band's edge, which stay finite.
        a = np.square(sy[sl] - yp[j0:j1, None])
        with np.errstate(invalid="ignore"):
            rx = np.sqrt(r2 - a)
        np.minimum(a, r2, out=a)
        events = np.empty((2,) + a.shape)
        np.ceil(np.subtract(local[sl], rx, out=events[0]), out=events[0])
        np.floor(np.add(local[sl], rx, out=events[1]), out=events[1])
        events[1] += 1.0
        np.fmax(np.fmin(events, width, out=events), 0.0, out=events)
        events += np.arange(0.0, size, cells)[:, None] + home_cell[sl]
        events = events.astype(np.int64).reshape(2, -1)

        count = (np.bincount(events[0], minlength=size)
                 - np.bincount(events[1], minlength=size))
        count = np.cumsum(count.reshape(shape), axis=-1)
        active = np.empty((deg + 1,) + shape)
        for k, col in enumerate(terms(sl, a)):
            if np.isscalar(col):
                np.multiply(count, col, out=active[k])
                continue
            col = np.broadcast_to(col, a.shape).ravel()
            delta = (np.bincount(events[0], col, size)
                     - np.bincount(events[1], col, size))
            np.cumsum(delta.reshape(shape), axis=-1, out=active[k])

        # Horner in each block's local basis, then exact zeros and clamp.
        # Every point has left by the exit slot, so the padding past it
        # has a zero count too.
        vals = active[deg]
        for k in range(deg - 1, -1, -1):
            vals *= u
            vals += active[k]
        np.maximum(vals, 0.0, out=vals)
        vals *= count > 0

        # Overlap-add: window pixel i of block h is row pixel h*B + i - R.
        vals = vals.reshape(rows, nblocks, spans, block)
        line = np.zeros((rows, nblocks + spans - 1, block))
        for s in range(spans):
            line[:, s:s + nblocks] += vals[:, :, s]
        line = line.reshape(rows, -1)
        values[:, j0:j1] = line[:, reach:reach + nx].T
    obs.count("kdv.rows_swept", ny)
    obs.count("kdv.band_points", int((hi - lo).sum()))
    return problem.make_grid(values)
