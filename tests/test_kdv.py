"""Tests for the KDV backends: agreement, guarantees, API behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdv import (
    KDVProblem,
    effective_radius,
    kde_bounds,
    kde_dualtree,
    kde_grid,
    kde_sampling,
    sample_size,
    scott_bandwidth,
    silverman_bandwidth,
)
from repro.core.kdv.gridcut import kde_gridcut
from repro.core.kdv.naive import kde_naive
from repro.core.kdv.sweep import kde_sweep
from repro.core.kernels import KERNELS
from repro.data import chicago_crime
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox

SIZE = (24, 16)
BW = 2.0


def reference(points, bbox, kernel, weights=None):
    return kde_naive(KDVProblem(points, bbox, SIZE, BW, kernel, weights=weights))


def direct_sum(problem):
    """Every pixel's kernel sum, one float64 ``evaluate`` per point."""
    xs, ys = problem.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.zeros((problem.nx, problem.ny))
    for px, py in problem.points:
        out += problem.kernel.evaluate(np.hypot(gx - px, gy - py),
                                       problem.bandwidth)
    return out


def relative_errors(got, want):
    """``|got - want| / want`` over the pixels whose density is above 1e-300."""
    live = want > 1e-300
    return np.abs(got[live] - want[live]) / want[live]


class TestBackendAgreement:
    """Every accelerated backend must reproduce the naive result."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_gridcut_exact(self, kernel, clustered_points, bbox):
        ref = reference(clustered_points, bbox, kernel)
        got = kde_gridcut(KDVProblem(clustered_points, bbox, SIZE, BW, kernel))
        assert got.max_abs_difference(ref) < 1e-8 * max(ref.max, 1.0)

    @pytest.mark.parametrize("kernel", ["uniform", "epanechnikov", "quartic"])
    def test_sweep_exact(self, kernel, clustered_points, bbox):
        ref = reference(clustered_points, bbox, kernel)
        got = kde_sweep(KDVProblem(clustered_points, bbox, SIZE, BW, kernel))
        assert got.max_abs_difference(ref) < 1e-7 * max(ref.max, 1.0)

    def test_parallel_exact(self, clustered_points, bbox):
        ref = reference(clustered_points, bbox, "quartic")
        got = kde_naive(
            KDVProblem(clustered_points, bbox, SIZE, BW, "quartic"), workers=3
        )
        assert got.max_abs_difference(ref) < 1e-10

    def test_parallel_single_worker(self, clustered_points, bbox):
        ref = reference(clustered_points, bbox, "gaussian")
        got = kde_naive(
            KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian"), workers=1
        )
        assert got.max_abs_difference(ref) < 1e-10

    def test_sweep_with_weights(self, clustered_points, bbox, rng):
        w = rng.uniform(0.5, 2.0, size=clustered_points.shape[0])
        ref = reference(clustered_points, bbox, "quartic", weights=w)
        got = kde_sweep(KDVProblem(clustered_points, bbox, SIZE, BW, "quartic", weights=w))
        assert got.max_abs_difference(ref) < 1e-7 * max(ref.max, 1.0)

    def test_gridcut_with_weights(self, clustered_points, bbox, rng):
        w = rng.uniform(0.0, 3.0, size=clustered_points.shape[0])
        ref = reference(clustered_points, bbox, "epanechnikov", weights=w)
        got = kde_gridcut(
            KDVProblem(clustered_points, bbox, SIZE, BW, "epanechnikov", weights=w)
        )
        assert got.max_abs_difference(ref) < 1e-9 * max(ref.max, 1.0)

    def test_sweep_rejects_gaussian(self, clustered_points, bbox):
        with pytest.raises(ParameterError, match="not polynomial"):
            kde_sweep(KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian"))

    def test_bandwidth_larger_than_window(self, small_points, bbox):
        """Every point covers every pixel: sweep events all clamp."""
        big = bbox.diagonal * 2.0
        ref = kde_naive(KDVProblem(small_points, bbox, SIZE, big, "quartic"))
        got = kde_sweep(KDVProblem(small_points, bbox, SIZE, big, "quartic"))
        assert got.max_abs_difference(ref) < 1e-7 * ref.max

    @pytest.mark.parametrize("bandwidth", [1e19, 1e300])
    def test_bandwidth_past_int64_pixels(self, bandwidth):
        """A reach past 2**63 pixels covers the raster, not nothing.

        The scatter windows once cast unclipped bounds to int64, which
        overflowed and left every window empty: an all-zero surface.
        """
        crime = chicago_crime(500, seed=0)
        surfaces = {
            method: kde_grid(crime.points, crime.bbox, (32, 24), bandwidth,
                             kernel="quartic", method=method).values
            for method in ("grid", "naive", "sweep")
        }
        np.testing.assert_array_equal(surfaces["grid"], surfaces["naive"])
        np.testing.assert_allclose(surfaces["sweep"], surfaces["naive"],
                                   rtol=1e-12)
        assert surfaces["naive"].min() == 500.0

    def test_tiny_bandwidth(self, small_points, bbox):
        """A sub-pixel bandwidth: blocks of one column, reach of one pixel.

        Each point is expanded about its own column block's centre, so
        the round-off stays within the sweep's stated bound however
        narrow the bandwidth; the tolerance is far looser than that
        bound (``auto`` plans the grid scatter at such bandwidths).
        """
        ref = kde_naive(KDVProblem(small_points, bbox, SIZE, 0.05, "quartic"))
        got = kde_sweep(KDVProblem(small_points, bbox, SIZE, 0.05, "quartic"))
        assert got.max_abs_difference(ref) < 1e-4 * max(ref.max, 1.0)

    def test_points_outside_window_contribute(self, bbox):
        """KDV counts mass from points outside the rendered window."""
        outside = np.array([[bbox.xmax + 0.5, bbox.center[1]]])
        ref = kde_naive(KDVProblem(outside, bbox, SIZE, 3.0, "quartic"))
        got = kde_sweep(KDVProblem(outside, bbox, SIZE, 3.0, "quartic"))
        assert ref.max > 0.0
        assert got.max_abs_difference(ref) < 1e-9 * ref.max


class TestBoundsBackend:
    def test_multiplicative_guarantee(self, clustered_points, bbox):
        eps = 0.1
        ref = kde_naive(KDVProblem(clustered_points, bbox, (12, 8), BW, "gaussian"))
        got = kde_bounds(
            KDVProblem(clustered_points, bbox, (12, 8), BW, "gaussian"), eps=eps
        )
        rel = np.abs(got.values - ref.values) / np.maximum(ref.values, 1e-300)
        assert rel.max() <= eps

    def test_equation6_holds_at_low_density_pixels(self):
        """4k crime events, 48x32, gaussian at 2% of the diagonal: the
        edge pixels' densities fall to 1e-93, where Equation 6 must still
        hold pixel by pixel."""
        data = chicago_crime(4000)
        bandwidth = 0.02 * math.hypot(data.bbox.width, data.bbox.height)
        problem = KDVProblem(data.points, data.bbox, (48, 32), bandwidth,
                             "gaussian")
        want = direct_sum(problem)
        assert want.min() < 1e-80  # the low-density pixels are there
        got = kde_bounds(problem, eps=0.01).values
        assert relative_errors(got, want).max() <= 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(KERNELS)),
        eps=st.sampled_from([0.0, 0.01, 0.2]),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 60),
        spread=st.floats(0.02, 0.5),
        margin=st.floats(0.25, 4.0),
        size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    )
    def test_relative_bound_property(self, kernel, eps, seed, n, spread,
                                     margin, size):
        """Clustered points in a window reaching up to 4 bandwidths past
        them: Equation 6 holds on every pixel above 1e-300 (up to float64
        round-off), empty pixels stay exactly 0, and ``eps = 0`` is the
        exact sum.  The window's diagonal stays near 20 bandwidths, so the
        gaussian's lowest densities are near 1e-170 and none underflows."""
        rng = np.random.default_rng(seed)
        bandwidth = 1.0
        centers = rng.uniform(0.0, 2.0, size=(3, 2))
        points = (centers[rng.integers(0, 3, size=n)]
                  + rng.normal(scale=spread, size=(n, 2)))
        lo = points.min(axis=0) - margin * bandwidth
        hi = points.max(axis=0) + margin * bandwidth
        problem = KDVProblem(points, BoundingBox(*lo, *hi), size, bandwidth,
                             kernel)
        want = direct_sum(problem)
        got = kde_bounds(problem, eps=eps).values
        assert (relative_errors(got, want) <= eps + 1e-9).all()
        assert (got[want == 0.0] == 0.0).all()

    def test_eps_zero_equals_exact_dualtree(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, "gaussian")
        assert np.array_equal(kde_bounds(problem, eps=0.0).values,
                              kde_dualtree(problem, tau=0.0).values)

    def test_reports_refinement_stats(self, clustered_points, bbox):
        grid = kde_bounds(
            KDVProblem(clustered_points, bbox, SIZE, BW, "quartic"), eps=0.05)
        stats = grid.diagnostics.records["refinement"]
        assert stats.pairs_visited > 0 and stats.n_tiles > 0

    def test_eps_zero_is_exact(self, small_points, bbox):
        ref = kde_naive(KDVProblem(small_points, bbox, (8, 6), BW, "gaussian"))
        got = kde_bounds(
            KDVProblem(small_points, bbox, (8, 6), BW, "gaussian"), eps=0.0
        )
        assert got.max_abs_difference(ref) < 1e-9 * max(ref.max, 1.0)

    def test_finite_support_far_pixels_zero(self, bbox):
        pts = np.array([[1.0, 1.0], [1.5, 1.2]])
        got = kde_bounds(KDVProblem(pts, bbox, (16, 12), 0.5, "quartic"), eps=0.1)
        # Pixels far from both points must be exactly zero.
        assert got.values[-1, -1] == 0.0

    def test_rejects_weights(self, small_points, bbox, rng):
        w = rng.uniform(size=small_points.shape[0])
        with pytest.raises(ParameterError, match="weights"):
            kde_bounds(KDVProblem(small_points, bbox, SIZE, BW, "gaussian", weights=w))

    def test_rejects_negative_eps(self, small_points, bbox):
        with pytest.raises(ParameterError):
            kde_bounds(KDVProblem(small_points, bbox, SIZE, BW, "gaussian"), eps=-0.1)


class TestSamplingBackend:
    def test_sample_size_formula(self):
        # m = ceil(ln(2/delta) / (2 eps^2))
        assert sample_size(0.1, 0.05) == int(np.ceil(np.log(40.0) / 0.02))

    def test_sample_size_validation(self):
        with pytest.raises(ParameterError):
            sample_size(0.0, 0.1)
        with pytest.raises(ParameterError):
            sample_size(0.1, 1.0)

    def test_error_within_hoeffding_bound(self, clustered_points, bbox):
        n = clustered_points.shape[0]
        eps, delta = 0.08, 0.05
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, "quartic")
        ref = kde_naive(problem)
        got = kde_sampling(problem, eps=eps, delta=delta, seed=42)
        k_max = 1.0  # quartic peak value
        bound = eps * n * k_max
        # Pointwise bound holds w.h.p.; allow the usual small slack since we
        # check *all* pixels, not one.
        frac_violating = (np.abs(got.values - ref.values) > bound).mean()
        assert frac_violating < 0.05

    def test_sample_ge_n_falls_back_exact(self, small_points, bbox):
        problem = KDVProblem(small_points, bbox, SIZE, BW, "quartic")
        ref = kde_naive(problem)
        got = kde_sampling(problem, sample=10_000, seed=1)
        assert got.max_abs_difference(ref) < 1e-8 * max(ref.max, 1.0)

    def test_total_mass_unbiased(self, clustered_points, bbox):
        problem = KDVProblem(clustered_points, bbox, SIZE, BW, "quartic")
        ref = kde_naive(problem).values.sum()
        masses = [
            kde_sampling(problem, sample=100, seed=s).values.sum() for s in range(20)
        ]
        assert abs(np.mean(masses) - ref) < 0.15 * ref

    def test_rejects_weights(self, small_points, bbox, rng):
        w = rng.uniform(size=small_points.shape[0])
        with pytest.raises(ParameterError, match="weights"):
            kde_sampling(KDVProblem(small_points, bbox, SIZE, BW, "quartic", weights=w))


class TestWorkersDefault:
    """``workers=None`` must defer to the shared executor defaults."""

    def test_signature_default_is_none(self):
        import inspect

        assert inspect.signature(kde_grid).parameters["workers"].default is None

    def test_omitted_workers_consults_env_default(self, small_points, bbox,
                                                  monkeypatch):
        """An invalid REPRO_WORKERS must surface — proof the env is read."""
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.raises(ParameterError, match="REPRO_WORKERS"):
            kde_grid(small_points, bbox, SIZE, BW, method="naive")

    def test_env_default_workers_used(self, clustered_points, bbox, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        grid = kde_grid(clustered_points, bbox, SIZE, BW, method="naive")
        ref = kde_grid(clustered_points, bbox, SIZE, BW, method="naive",
                       workers=1)
        assert np.array_equal(grid.values, ref.values)


class TestKdeGridAPI:
    def test_auto_picks_exact_method(self, clustered_points, bbox):
        auto = kde_grid(clustered_points, bbox, SIZE, BW, kernel="quartic")
        naive = kde_grid(clustered_points, bbox, SIZE, BW, kernel="quartic", method="naive")
        assert auto.max_abs_difference(naive) < 1e-7 * max(naive.max, 1.0)

    def test_auto_gaussian_uses_grid(self, clustered_points, bbox):
        auto = kde_grid(clustered_points, bbox, SIZE, BW, kernel="gaussian")
        naive = kde_grid(clustered_points, bbox, SIZE, BW, kernel="gaussian", method="naive")
        assert auto.max_abs_difference(naive) < 1e-8 * max(naive.max, 1.0)

    def test_unknown_method(self, small_points, bbox):
        with pytest.raises(ParameterError, match="unknown KDV method"):
            kde_grid(small_points, bbox, SIZE, BW, method="magic")

    def test_normalize_integrates_to_one(self, clustered_points, bbox):
        grid = kde_grid(
            clustered_points, bbox, (96, 64), 1.0, kernel="quartic", normalize=True
        )
        dx, dy = bbox.pixel_size(96, 64)
        total = grid.values.sum() * dx * dy
        # Some kernel mass falls outside the window, so the integral is
        # slightly below 1.
        assert 0.8 < total <= 1.001

    def test_invalid_bandwidth(self, small_points, bbox):
        with pytest.raises(ParameterError):
            kde_grid(small_points, bbox, SIZE, 0.0)

    def test_invalid_size(self, small_points, bbox):
        with pytest.raises(ParameterError):
            kde_grid(small_points, bbox, (0, 5), BW)

    def test_invalid_weights_length(self, small_points, bbox):
        with pytest.raises(ParameterError):
            kde_grid(small_points, bbox, SIZE, BW, weights=[1.0])

    def test_bbox_type_checked(self, small_points):
        with pytest.raises(ParameterError, match="BoundingBox"):
            kde_grid(small_points, (0, 0, 1, 1), SIZE, BW)

    def test_result_metadata(self, small_points, bbox):
        grid = kde_grid(small_points, bbox, SIZE, BW)
        assert grid.shape == SIZE
        assert grid.bbox is bbox


class TestKdeGridParameterAudit:
    """Method-specific keywords error instead of being silently ignored.

    One test per decided parameter/method combination: either the
    combination raises a clear ParameterError, or its acceptance is the
    documented behaviour and is asserted to work.
    """

    def test_tau_with_non_dualtree_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="tau.*dualtree"):
            kde_grid(small_points, bbox, SIZE, BW, method="naive", tau=0.1)

    def test_tau_with_auto_resolves_to_dualtree(self, small_points, bbox):
        """Since PR 8 the planner resolves auto *before* the audit, so a
        tau= hint legally steers auto to the dual-tree backend instead of
        crashing (the audit-before-resolution bug class)."""
        grid = kde_grid(small_points, bbox, SIZE, BW, tau=0.1)
        plan = grid.diagnostics.records["kdv.plan"]
        assert plan["method"] == "dualtree"
        assert plan["kwargs"] == {"tau": "0.1"}

    def test_eps_with_dualtree_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="eps"):
            kde_grid(small_points, bbox, SIZE, BW, method="dualtree", eps=0.1)

    def test_eps_with_bounds_and_sampling_accepted(self, small_points, bbox):
        kde_grid(small_points, bbox, SIZE, BW, method="bounds", eps=0.2)
        kde_grid(small_points, bbox, SIZE, BW, method="sampling", eps=0.2)

    def test_delta_with_bounds_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="delta.*sampling"):
            kde_grid(small_points, bbox, SIZE, BW, method="bounds", delta=0.1)

    def test_sample_with_grid_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="sample"):
            kde_grid(small_points, bbox, SIZE, BW, method="grid", sample=10)

    def test_seed_with_sweep_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="seed.*sampling"):
            kde_grid(small_points, bbox, SIZE, BW, method="sweep", seed=1)

    def test_seed_with_sampling_accepted(self, small_points, bbox):
        kde_grid(small_points, bbox, SIZE, BW, method="sampling", seed=1)

    def test_workers_with_grid_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="workers"):
            kde_grid(small_points, bbox, SIZE, BW, method="grid", workers=2)

    def test_backend_with_sweep_raises(self, small_points, bbox):
        with pytest.raises(ParameterError, match="backend"):
            kde_grid(small_points, bbox, SIZE, BW, method="sweep",
                     backend="thread")

    def test_workers_with_dualtree_and_naive_accepted(self, small_points, bbox):
        kde_grid(small_points, bbox, SIZE, BW, method="dualtree", workers=2)
        kde_grid(small_points, bbox, SIZE, BW, method="naive", workers=2)

    def test_weights_with_bounds_raises(self, small_points, bbox, rng):
        w = rng.uniform(size=small_points.shape[0])
        with pytest.raises(ParameterError, match="weights"):
            kde_grid(small_points, bbox, SIZE, BW, method="bounds", weights=w)

    def test_weights_with_sampling_raises(self, small_points, bbox, rng):
        w = rng.uniform(size=small_points.shape[0])
        with pytest.raises(ParameterError, match="weights"):
            kde_grid(small_points, bbox, SIZE, BW, method="sampling", weights=w)

    @pytest.mark.parametrize(
        "method", ["naive", "grid", "sweep", "adaptive", "dualtree", "auto"]
    )
    def test_weights_accepted_everywhere_else(self, method, small_points,
                                              bbox, rng):
        w = rng.uniform(0.5, 1.5, size=small_points.shape[0])
        grid = kde_grid(small_points, bbox, SIZE, BW, method=method, weights=w)
        assert grid.values.max() > 0.0

    def test_defaults_never_trigger_the_audit(self, small_points, bbox):
        """All-default keywords must work with every method."""
        for method in ("naive", "grid", "sweep", "bounds", "dualtree",
                       "sampling", "adaptive", "auto"):
            kde_grid(small_points, bbox, (8, 6), BW, method=method)


class TestEffectiveRadius:
    def test_finite_kernel_keeps_support(self):
        assert effective_radius(KERNELS["quartic"], 3.0) == 3.0

    def test_gaussian_tail(self):
        r = effective_radius(KERNELS["gaussian"], 1.0, tail=1e-12)
        assert KERNELS["gaussian"].evaluate(r, 1.0) == pytest.approx(1e-12, rel=1e-6)


class TestBandwidthRules:
    def test_scott_scales_with_spread(self, rng):
        tight = rng.normal(scale=1.0, size=(500, 2))
        wide = rng.normal(scale=5.0, size=(500, 2))
        assert scott_bandwidth(wide) > scott_bandwidth(tight)

    def test_scott_shrinks_with_n(self, rng):
        pts = rng.normal(size=(2000, 2))
        assert scott_bandwidth(pts) < scott_bandwidth(pts[:100])

    def test_silverman_equals_scott_in_2d(self, rng):
        pts = rng.normal(size=(300, 2))
        assert silverman_bandwidth(pts) == pytest.approx(scott_bandwidth(pts))

    def test_degenerate_inputs(self):
        with pytest.raises(DataError):
            scott_bandwidth([[1.0, 1.0]])
        with pytest.raises(DataError):
            scott_bandwidth([[1.0, 1.0], [1.0, 1.0]])
