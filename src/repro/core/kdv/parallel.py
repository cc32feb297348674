"""Thread-parallel KDV: the paper's parallel/hardware method family.

The GPU/FPGA methods the tutorial surveys [50, 67, 105, 107] are
represented here by CPU worker lanes: the pixel grid is split into row
bands and each band is evaluated independently with the exact naive
formula.  NumPy releases the GIL inside its BLAS-backed matrix products,
so the default ``thread`` backend delivers genuine parallel speedup
without pickling overhead.  Each band runs :func:`kde_naive`'s chunked
gather, so memory per band stays bounded however large the band is.

The band decomposition rides on the shared executor
(:mod:`repro.parallel`) — the same layer that runs the Monte-Carlo
envelopes and permutation tests — instead of a private thread pool.
Each band writes a disjoint output slice, so the result is exactly the
serial evaluation for every worker count and backend.

The same worker decomposition also composes with sampling (sample first,
then parallel evaluation), mirroring the combined methods in [110].
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ..._validation import check_positive
from ...parallel import parallel_starmap
from .base import KDVProblem
from .naive import _gather

__all__ = ["kde_parallel"]


def kde_parallel(problem: KDVProblem, workers: int | None = 4, backend: str | None = None):
    """Exact KDV evaluated over row bands by the shared executor.

    ``workers=None`` uses the :mod:`repro.parallel` default
    (``REPRO_WORKERS`` or 1); the historical default of 4 keeps the
    ``method="parallel"`` backend parallel out of the box.
    """
    if workers is not None:
        workers = int(check_positive(workers, "workers"))
    xs, ys = problem.pixel_centers()
    ny = problem.ny
    # Oversplit for load balance; the split depends only on the requested
    # worker count, and bands write disjoint slices, so any executor
    # configuration reproduces the serial result exactly.
    lanes = workers if workers is not None else 4
    bands = min(lanes * 4, ny)
    edges = np.linspace(0, ny, bands + 1).astype(int)
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
