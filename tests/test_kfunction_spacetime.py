"""Tests for the spatiotemporal K-function (Equation 8, Figure 6)."""

import numpy as np
import pytest

from repro.core.kfunction import st_k_function, st_k_function_plot
from repro.data import csr, hk_covid
from repro.errors import ParameterError
from repro.geometry import pairwise_distances

S_TS = np.array([0.5, 1.5, 3.0])
T_TS = np.array([10.0, 30.0, 60.0])


def brute(points, times, s_ts, t_ts, include_self=False):
    d = pairwise_distances(points)
    dt = np.abs(times[:, None] - times[None, :])
    out = np.zeros((len(s_ts), len(t_ts)), dtype=int)
    for a, s in enumerate(s_ts):
        for b, t in enumerate(t_ts):
            c = int(((d <= s) & (dt <= t)).sum())
            if not include_self:
                c -= points.shape[0]
            out[a, b] = c
    return out


@pytest.fixture(scope="module")
def st_data():
    ds = hk_covid(150, 200, seed=41)
    return ds.points, ds.times, ds.bbox


class TestAgainstBruteForce:
    @pytest.mark.parametrize("method", ["naive", "grid"])
    def test_matches_brute(self, method, st_data):
        pts, times, _ = st_data
        got = st_k_function(pts, times, S_TS, T_TS, method=method)
        np.testing.assert_array_equal(got, brute(pts, times, S_TS, T_TS))

    def test_methods_agree_chunked(self, st_data):
        pts, times, _ = st_data
        a = st_k_function(pts, times, S_TS, T_TS, method="naive", chunk=13)
        b = st_k_function(pts, times, S_TS, T_TS, method="grid")
        np.testing.assert_array_equal(a, b)

    def test_include_self(self, st_data):
        pts, times, _ = st_data
        a = st_k_function(pts, times, S_TS, T_TS)
        b = st_k_function(pts, times, S_TS, T_TS, include_self=True)
        np.testing.assert_array_equal(b - a, pts.shape[0])

    def test_monotone_both_axes(self, st_data):
        pts, times, _ = st_data
        counts = st_k_function(pts, times, S_TS, T_TS)
        assert (np.diff(counts, axis=0) >= 0).all()
        assert (np.diff(counts, axis=1) >= 0).all()

    def test_large_thresholds_count_everything(self, st_data):
        pts, times, _ = st_data
        n = pts.shape[0]
        counts = st_k_function(pts, times, [1e6], [1e9])
        assert counts[0, 0] == n * (n - 1)

    def test_boundary_inclusive(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        times = np.array([0.0, 5.0])
        counts = st_k_function(pts, times, [3.0], [5.0], method="naive")
        assert counts[0, 0] == 2  # distances exactly at the thresholds count

    def test_threshold_boundary_agrees_across_methods(self):
        # Regression: the naive scan's old |a|^2+|b|^2-2ab expansion lost
        # ulps, so this pair at distance exactly 10.0 fell past the 10.0
        # threshold under naive but not under grid.
        pts = np.array([[0.0, 20.65459754], [10.0, 20.65459754]])
        times = np.array([0.0, 0.0])
        s_ts = [1.0, 10.0, 100.0]
        t_ts = [5.0, 50.0]
        a = st_k_function(pts, times, s_ts, t_ts, method="naive")
        b = st_k_function(pts, times, s_ts, t_ts, method="grid")
        np.testing.assert_array_equal(a, b)
        assert a[1, 0] == 2  # admitted at s=10.0 exactly

    def test_zero_spatial_threshold_counts_coincident_pairs(self, st_data):
        # s = 0 admits coincident points only; the grid backend walks its
        # batched kernel at radius 0 instead of falling back to naive.
        pts, times, _ = st_data
        pts = np.vstack([pts, pts[:40], pts[:10]])
        times = np.concatenate([times, times[:40] + 1.0, times[:10]])
        t_ts = [0.0, 0.5, 5.0]
        a = st_k_function(pts, times, [0.0], t_ts, method="naive")
        b = st_k_function(pts, times, [0.0], t_ts, method="grid")
        np.testing.assert_array_equal(a, b)
        same = (pts[:, None, :] == pts[None, :, :]).all(axis=2)
        dt = np.abs(times[:, None] - times[None, :])
        want = [int((same & (dt <= t)).sum()) - pts.shape[0] for t in t_ts]
        assert b[0].tolist() == want == [20, 20, 120]

    def test_unknown_method(self, st_data):
        pts, times, _ = st_data
        with pytest.raises(ParameterError, match="unknown ST K"):
            st_k_function(pts, times, S_TS, T_TS, method="flux")


class TestFigure6Plot:
    def test_st_clustered_exceeds_envelope(self, st_data):
        pts, times, bbox = st_data
        plot = st_k_function_plot(
            pts, times, bbox, S_TS, T_TS, n_simulations=19, seed=42
        )
        assert plot.fraction_clustered() > 0.0
        assert plot.clustered_mask().shape == (len(S_TS), len(T_TS))

    def test_st_csr_inside_envelope(self, bbox, rng):
        pts = csr(250, bbox, seed=43)
        times = rng.uniform(0, 100, size=250)
        plot = st_k_function_plot(
            pts, times, bbox, S_TS, T_TS, n_simulations=39, seed=44
        )
        outside = plot.clustered_mask().sum() + plot.dispersed_mask().sum()
        assert outside <= 1

    def test_permutation_null(self, st_data):
        """Permuting times tests interaction; hk_covid has strong interaction."""
        pts, times, bbox = st_data
        plot = st_k_function_plot(
            pts, times, bbox, [2.0], [20.0],
            n_simulations=19, null="permute", seed=45,
        )
        assert plot.observed.shape == (1, 1)

    def test_envelope_ordering(self, st_data):
        pts, times, bbox = st_data
        plot = st_k_function_plot(
            pts, times, bbox, S_TS, T_TS, n_simulations=9, seed=46
        )
        assert (plot.lower <= plot.upper).all()

    def test_bad_null(self, st_data):
        pts, times, bbox = st_data
        with pytest.raises(ParameterError, match="null"):
            st_k_function_plot(pts, times, bbox, S_TS, T_TS, null="bootstrap")

    def test_zero_sims_rejected(self, st_data):
        pts, times, bbox = st_data
        with pytest.raises(ParameterError):
            st_k_function_plot(pts, times, bbox, S_TS, T_TS, n_simulations=0)
