"""The sweep line's flat delta table vs the row-wise one it replaced.

``kde_sweep`` builds each row's entry/exit delta table with one 1-D
unbuffered add (and one subtract) on the flat view, point-major.  Every
cell still takes its adds, then its subtracts, in point order, so the
table and the surface must match the old 2-D ``np.add.at`` version
(kept verbatim below) byte for byte.
"""

import numpy as np
import pytest

from repro.core.kdv import KDVProblem
from repro.core.kdv import sweep
from repro.geometry import BoundingBox

BBOX = BoundingBox(0.0, 0.0, 20.0, 12.0)


def legacy_sweep_delta(i_in, i_out, point_coeffs, nx):
    """The pre-refactor delta table of ``kde_sweep``, verbatim."""
    deg = point_coeffs.shape[1] - 1
    delta = np.zeros((nx + 1, deg + 1), dtype=np.float64)
    np.add.at(delta, i_in, point_coeffs)
    np.subtract.at(delta, i_out, point_coeffs)
    return delta


def _points(rng):
    """A cluster in the lower left, so upper rows have empty bands, plus
    points outside the window on every side."""
    cluster = rng.normal([5.0, 3.0], 1.2, size=(300, 2))
    outside = np.array([[-1.5, 6.0], [21.0, 2.0], [10.0, -0.8],
                        [10.0, 12.9], [-3.0, -3.0], [25.0, 15.0]])
    return np.vstack([cluster, outside])


@pytest.mark.parametrize("width", [1, 3, 5])
def test_table_matches_row_wise_add(width):
    rng = np.random.default_rng(width)
    nx, m = 17, 400
    i_in = rng.integers(0, nx + 1, m)
    i_out = rng.integers(0, nx + 1, m)
    coeffs = rng.normal(size=(m, width)) * 10.0 ** rng.integers(-8, 8, (m, 1))
    got = sweep._delta_table(i_in, i_out, coeffs, nx)
    ref = legacy_sweep_delta(i_in, i_out, coeffs, nx)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel", ["uniform", "epanechnikov", "quartic"])
@pytest.mark.parametrize("weighted", [False, True])
def test_surface_bytes_unchanged(monkeypatch, kernel, weighted):
    rng = np.random.default_rng(3)
    pts = _points(rng)
    weights = rng.uniform(0.0, 2.0, pts.shape[0]) if weighted else None
    problem = KDVProblem(pts, BBOX, (40, 30), 1.7, kernel, weights=weights)
    got = sweep.kde_sweep(problem).values
    assert (got == 0.0).all(axis=0).any(), "no row with an empty band"
    monkeypatch.setattr(sweep, "_delta_table", legacy_sweep_delta)
    ref = sweep.kde_sweep(problem).values
    assert got.tobytes() == ref.tobytes()
