"""Tests for anisotropic KDV, kriging LOOCV, and the ASCII chart."""

import numpy as np
import pytest

from repro.bench import ascii_chart
from repro.core.interpolation import VariogramModel, fit_variogram, loocv_kriging
from repro.core.kdv import KDVProblem, kde_grid_anisotropic
from repro.core.kdv.naive import kde_naive
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox


class TestAnisotropicKDV:
    def test_equal_bandwidths_match_isotropic(self, clustered_points, bbox):
        """With b_x = b_y the result is the isotropic KDV at that bandwidth."""
        b = 1.5
        aniso = kde_grid_anisotropic(clustered_points, bbox, (20, 16), (b, b))
        # Isotropic at bandwidth b equals scaled-by-b evaluation at b=1.
        iso = kde_naive(KDVProblem(clustered_points, bbox, (20, 16), b, "quartic"))
        assert aniso.max_abs_difference(iso) < 1e-6 * max(iso.max, 1.0)

    def test_matches_direct_scaled_evaluation(self, small_points, bbox):
        """Values equal the naive sum of K at the scaled distance."""
        bx, by = 2.0, 0.7
        grid = kde_grid_anisotropic(
            small_points, bbox, (10, 8), (bx, by), method="naive"
        )
        from repro.core.kernels import get_kernel

        kern = get_kernel("quartic")
        xs, ys = bbox.pixel_centers(10, 8)
        ref = np.zeros((10, 8))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                d2 = (
                    ((x - small_points[:, 0]) / bx) ** 2
                    + ((y - small_points[:, 1]) / by) ** 2
                )
                ref[i, j] = float(kern.evaluate_sq(d2, 1.0).sum())
        np.testing.assert_allclose(grid.values, ref, atol=1e-9)

    def test_elongated_hotspot(self, bbox):
        """Wide b_x smears a point into a horizontal bar, not a disc."""
        pts = np.array([[10.0, 6.0]])
        grid = kde_grid_anisotropic(pts, bbox, (80, 48), (4.0, 1.0))
        mask = grid.values > 0
        xs, ys = grid.pixel_centers()
        x_extent = np.ptp(xs[mask.any(axis=1)])
        y_extent = np.ptp(ys[mask.any(axis=0)])
        assert x_extent > 2.5 * y_extent

    def test_original_window_kept(self, small_points, bbox):
        grid = kde_grid_anisotropic(small_points, bbox, (8, 8), (2.0, 1.0))
        assert grid.bbox is bbox

    def test_bad_bandwidths(self, small_points, bbox):
        with pytest.raises(ParameterError):
            kde_grid_anisotropic(small_points, bbox, (8, 8), (0.0, 1.0))


class TestLOOCV:
    def test_good_model_small_rmse(self, rng):
        pts = rng.uniform(0, 10, size=(60, 2))
        vals = np.sin(pts[:, 0] * 0.5) + np.cos(pts[:, 1] * 0.4)
        model = VariogramModel("exponential", nugget=0.0, psill=0.8, range_=4.0)
        residuals, rmse = loocv_kriging(pts, vals, model)
        assert residuals.shape == (60,)
        assert rmse < 0.4  # the smooth field is well interpolated

    def test_white_noise_large_rmse(self, rng):
        pts = rng.uniform(0, 10, size=(60, 2))
        vals = rng.normal(size=60)
        model = VariogramModel("exponential", nugget=0.0, psill=1.0, range_=3.0)
        _, rmse_noise = loocv_kriging(pts, vals, model)
        assert rmse_noise > 0.5  # noise cannot be predicted

    def test_detects_better_variogram(self, rng):
        """LOOCV prefers a fitted model over a wildly wrong one."""
        pts = rng.uniform(0, 10, size=(80, 2))
        vals = np.sin(pts[:, 0] * 0.6) * np.cos(pts[:, 1] * 0.5)
        from repro.core.interpolation import empirical_variogram

        lags, gamma, counts = empirical_variogram(pts, vals, n_bins=10)
        fitted = fit_variogram(lags, gamma, counts=counts)
        silly = VariogramModel("gaussian", nugget=5.0, psill=0.01, range_=0.1)
        _, rmse_fitted = loocv_kriging(pts, vals, fitted)
        _, rmse_silly = loocv_kriging(pts, vals, silly)
        assert rmse_fitted <= rmse_silly * 1.05

    def test_needs_three_samples(self):
        model = VariogramModel("linear", nugget=0.0, psill=1.0, range_=1.0)
        with pytest.raises(DataError):
            loocv_kriging([[0, 0], [1, 1]], [1.0, 2.0], model)


class TestAsciiChart:
    def test_basic_rendering(self):
        xs = np.linspace(0, 5, 10)
        out = ascii_chart(xs, {"a": xs ** 2}, width=30, height=6, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "o=a" in lines[-1]
        assert "25" in out  # y max label

    def test_multiple_series_glyphs(self):
        xs = np.linspace(0, 1, 5)
        out = ascii_chart(xs, {"one": xs, "two": 1 - xs}, width=20, height=5)
        assert "o=one" in out and "x=two" in out

    def test_nan_skipped(self):
        xs = np.linspace(0, 1, 5)
        ys = np.array([0.0, np.nan, 0.5, np.nan, 1.0])
        out = ascii_chart(xs, {"a": ys}, width=20, height=5)
        assert "o" in out

    def test_constant_series(self):
        xs = np.linspace(0, 1, 5)
        out = ascii_chart(xs, {"flat": np.ones(5)}, width=20, height=5)
        assert "o" in out

    def test_validation(self):
        with pytest.raises(DataError):
            ascii_chart([1.0], {"a": [1.0]})
        with pytest.raises(DataError):
            ascii_chart([1.0, 2.0], {})
        with pytest.raises(DataError):
            ascii_chart([1.0, 2.0], {"a": [1.0]})
        with pytest.raises(ParameterError):
            ascii_chart([1.0, 2.0], {"a": [1.0, 2.0]}, width=4)

    def test_cli_chart_flag(self, tmp_path, clustered_points, capsys):
        from repro.cli import main
        from repro.data import write_csv

        csv_path = tmp_path / "pts.csv"
        write_csv(csv_path, clustered_points)
        code = main(
            ["kfunction", str(csv_path), "--thresholds", "5",
             "--simulations", "5", "--chart"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "o=K(s)" in out
