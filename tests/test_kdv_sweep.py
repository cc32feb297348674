"""The sweep line's stated round-off bound, exact zeros and non-negativity.

``kde_sweep`` expands each point in the local basis of its column block
and carries an integer active count through its prefix sums, so every
pixel no point reaches is exactly 0, no pixel is negative, and every
pixel is within the bound of ``repro.core.kdv.sweep``'s docstring of an
elementwise float64 sum.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdv import KDVProblem
from repro.core.kdv.gridcut import kde_gridcut
from repro.core.kdv.sweep import kde_sweep
from repro.core.stkdv import stkdv
from repro.data import chicago_crime, hk_covid
from repro.geometry import BoundingBox

EPS = np.finfo(np.float64).eps
#: The expansion's amplitude per power of d^2 (2 + 5^2).
AMPLITUDE = 27.0


def _pairwise(problem):
    """Per-pixel x/y offsets to every point: ``(nx, ny, n)`` each."""
    xs, ys = problem.pixel_centers()
    px, py = problem.points[:, 0], problem.points[:, 1]
    ox = np.broadcast_to(xs[:, None, None] - px, (xs.size, ys.size, px.size))
    oy = np.broadcast_to(ys[None, :, None] - py, ox.shape)
    return ox, oy


def stated_bound(problem):
    """The sweep's per-pixel error bound and the reference's own error.

    Returns ``(bound, zero, slack)``: the docstring's bound plus the
    elementwise sum's round-off, a mask of the pixels no point reaches
    (every point farther than the support plus round-off), and each
    pixel's allowance for points within round-off of the support edge,
    which either evaluation may count inside or outside.
    """
    kernel, b = problem.kernel, problem.bandwidth
    k = len(kernel.poly_coeffs(b)) - 1
    k0 = float(kernel.evaluate_sq(np.zeros(1), b)[0])
    dx, _ = problem.bbox.pixel_size(problem.nx, problem.ny)
    w = np.ones(problem.n) if problem.weights is None else problem.weights
    ox, oy = _pairwise(problem)
    near = (np.abs(ox) <= 4 * b + 2 * dx) & (np.abs(oy) <= b)
    m = near.sum(axis=-1)
    weight = (near * w).sum(axis=-1)
    scale = max(np.abs(problem.points).max(initial=0.0),
                abs(problem.bbox.xmin), abs(problem.bbox.xmax),
                abs(problem.bbox.ymin), abs(problem.bbox.ymax))
    geometry = 4.0 * (scale / b + 1.0)
    bound = ((2 * m + 32) * AMPLITUDE ** k + geometry) * EPS * k0 * weight
    # The elementwise sum: one rounded kernel value and one add per point.
    ref_err = (problem.n + 4) * EPS * k0 * weight
    rel = (ox * ox + oy * oy) / (b * b) - 1.0
    delta = 64.0 * EPS * (scale / b + 1.0)
    edge = np.abs(rel) <= delta
    per_point = k0 if k == 0 else k0 * 2.0 * delta
    slack = (edge * w).sum(axis=-1) * per_point
    zero = (rel > delta).all(axis=-1)
    return bound + ref_err, zero, slack


def elementwise(problem):
    """Every pixel's kernel sum from one float64 ``evaluate_sq`` per pair."""
    ox, oy = _pairwise(problem)
    values = problem.kernel.evaluate_sq(ox * ox + oy * oy, problem.bandwidth)
    if problem.weights is not None:
        values = values * problem.weights
    return values.sum(axis=-1)


def check_bound(problem):
    got = kde_sweep(problem).values
    ref = elementwise(problem)
    bound, zero, slack = stated_bound(problem)
    assert (got >= 0.0).all(), "negative pixel"
    assert (got[zero] == 0.0).all(), "nonzero pixel that no point reaches"
    excess = np.abs(got - ref) - bound - slack
    assert (excess <= 0.0).all(), (
        f"error past the stated bound by {excess.max():.3g} "
        f"(bound {bound.ravel()[excess.argmax()]:.3g})")
    return got, ref


@st.composite
def sweep_problems(draw):
    kernel = draw(st.sampled_from(["uniform", "epanechnikov", "quartic"]))
    nx = draw(st.integers(1, 20))
    ny = draw(st.integers(1, 16))
    x0 = draw(st.floats(-1e3, 1e3))
    y0 = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(0.5, 50.0))
    height = draw(st.floats(0.5, 50.0))
    bbox = BoundingBox(x0, y0, x0 + width, y0 + height)
    # From a twentieth of a pixel to wider than the window.
    pixels = draw(st.floats(0.05, 40.0))
    bandwidth = pixels * width / nx
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Tight and loose clusters anywhere within reach of the window (some
    # outside it), plus a few scattered points.
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        centre = rng.uniform([x0 - bandwidth, y0 - bandwidth],
                             [x0 + width + bandwidth, y0 + height + bandwidth])
        spread = draw(st.sampled_from([0.0, 0.01, 1.0])) * bandwidth
        parts.append(centre + rng.normal(0.0, 1.0, (draw(st.integers(1, 60)), 2))
                     * spread)
    parts.append(rng.uniform([x0 - 2 * width, y0 - 2 * height],
                             [x0 + 3 * width, y0 + 3 * height],
                             (draw(st.integers(1, 20)), 2)))
    points = np.vstack(parts)
    weights = (rng.uniform(0.0, 3.0, points.shape[0])
               if draw(st.booleans()) else None)
    return KDVProblem(points, bbox, (nx, ny), bandwidth, kernel,
                      weights=weights)


class TestStatedBound:
    @settings(max_examples=150, deadline=None)
    @given(sweep_problems())
    def test_bound_property(self, problem):
        check_bound(problem)

    @pytest.mark.parametrize("kernel", ["uniform", "epanechnikov", "quartic"])
    @pytest.mark.parametrize("pixels", [0.07, 0.3, 0.5, 0.9, 1.5])
    def test_sub_pixel_bandwidths(self, kernel, pixels):
        rng = np.random.default_rng(7)
        bbox = BoundingBox(0.0, 0.0, 64.0, 48.0)
        points = np.vstack([rng.uniform(-2.0, 66.0, (300, 2)),
                            rng.normal([20.0, 20.0], 0.3, (200, 2))])
        check_bound(KDVProblem(points, bbox, (64, 48), pixels, kernel))

    def test_weighted_cluster_beside_empty_stretch(self):
        rng = np.random.default_rng(11)
        bbox = BoundingBox(0.0, 0.0, 30.0, 20.0)
        points = rng.normal([4.0, 10.0], 0.5, (2000, 2))
        weights = rng.uniform(0.0, 5.0, points.shape[0])
        got, _ = check_bound(KDVProblem(points, bbox, (60, 40), 1.3,
                                        "quartic", weights=weights))
        assert (got[40:] == 0.0).all()


    def test_pixel_past_a_heavy_cluster_is_clamped(self):
        """Pixel (30, 4) is reached only by a point 1e-11 inside its
        support, after 3,000 heavy points entered and left the same
        window: the prefix-sum residue there exceeds the true value, and
        without the clamp it reads -4e-12."""
        rng = np.random.default_rng(1)
        heavy = np.column_stack([rng.uniform(1.96, 2.04, 3000),
                                 rng.uniform(-0.4, 1.4, 3000)])
        points = np.vstack([heavy, [[2.05 + 1e-11, 0.45]]])
        weights = np.r_[rng.uniform(1.0, 100.0, 3000), 1.0]
        got, _ = check_bound(KDVProblem(points, BoundingBox(0.0, 0.0, 8.0, 1.0),
                                        (80, 10), 1.0, "quartic",
                                        weights=weights))
        assert got[30, 4] >= 0.0


class TestLeadInput:
    def test_chicago_quartic_one_percent(self):
        """20k crimes, 256x192, quartic at 1% of the diagonal: the row-centred
        expansion left thousands of negative pixels and residue where the
        density is 0."""
        data = chicago_crime(20_000, seed=3)
        problem = KDVProblem(data.points, data.bbox, (256, 192),
                             0.01 * data.bbox.diagonal, "quartic")
        got = kde_sweep(problem).values
        ref = kde_gridcut(problem).values
        assert (got >= 0.0).all()
        assert (got[ref == 0.0] == 0.0).all()
        live = ref > 1e-6 * ref.max()
        rel = np.abs(got[live] - ref[live]) / ref[live]
        assert rel.max() < 1e-9


class TestSTKDVWindow:
    def test_hk_covid_window_has_no_negatives_and_exact_zeros(self):
        data = hk_covid()
        frames = np.linspace(data.times.min(), data.times.max(), 48)
        args = (data.points, data.times, data.bbox, (100, 60), frames, 1.5, 10.0)
        got = stkdv(*args, method="window").values
        ref = stkdv(*args, method="window", spatial_method="grid").values
        assert (got >= 0.0).all()
        assert (got[ref == 0.0] == 0.0).all()
        live = ref > 1e-6 * ref.max()
        rel = np.abs(got[live] - ref[live]) / ref[live]
        assert rel.max() < 1e-7
