"""Tests for the planar K-function and Ripley/L normalisations."""

import numpy as np
import pytest

from repro.core.kfunction import (
    border_ripley_k,
    cross_k_function,
    k_function,
    l_function,
    local_k_function,
    ripley_k,
)
from repro.data import csr
from repro.errors import ParameterError
from repro.geometry import BoundingBox
from repro.stream import StreamEngine, StreamingKFunction, StreamWindow


def brute_table(queries, points, thresholds):
    """``(nq, D)`` Definition-2 counts: points within ``s`` of each query."""
    d = np.sqrt(((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    return np.stack([(d <= s).sum(axis=1) for s in thresholds], axis=1)


def brute_counts(points, thresholds, include_self=False):
    counts = brute_table(points, points, thresholds).sum(axis=0)
    return counts if include_self else counts - points.shape[0]


class TestMethodAgreement:
    THRESHOLDS = np.array([0.3, 0.8, 1.5, 3.0, 6.0])

    @pytest.mark.parametrize("method", ["naive", "grid"])
    def test_matches_brute_force(self, method, clustered_points):
        got = k_function(clustered_points, self.THRESHOLDS, method=method)
        np.testing.assert_array_equal(got, brute_counts(clustered_points, self.THRESHOLDS))

    @pytest.mark.parametrize("method", ["naive", "grid"])
    def test_include_self_adds_n(self, method, small_points):
        ts = np.array([1.0, 2.0])
        a = k_function(small_points, ts, method=method)
        b = k_function(small_points, ts, method=method, include_self=True)
        np.testing.assert_array_equal(b - a, [small_points.shape[0]] * 2)

    def test_auto_equals_grid(self, random_points):
        ts = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            k_function(random_points, ts),
            k_function(random_points, ts, method="grid"),
        )

    def test_chunked_naive_matches(self, random_points):
        ts = np.array([0.5, 2.5])
        np.testing.assert_array_equal(
            k_function(random_points, ts, method="naive", chunk=7),
            k_function(random_points, ts, method="naive", chunk=10_000),
        )

    def test_monotone_in_threshold(self, clustered_points):
        counts = k_function(clustered_points, np.linspace(0.1, 5.0, 10))
        assert (np.diff(counts) >= 0).all()

    def test_zero_threshold(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        counts = k_function(pts, np.array([0.0]))
        assert counts[0] == 2  # the coincident pair, both directions

    def test_unknown_method(self, small_points):
        with pytest.raises(ParameterError, match="unknown K-function"):
            k_function(small_points, [1.0], method="quantum")

    def test_counts_even(self, random_points):
        """Ordered-pair counts without self-pairs are always even."""
        counts = k_function(random_points, np.array([1.0, 3.0]))
        assert (counts % 2 == 0).all()


class TestCoincidentPointsAtZero:
    """Every planar entry point against Definition 2 on coincident points,
    with a threshold of exactly 0.0 (which counts only those)."""

    BBOX = BoundingBox(0.0, 0.0, 20.0, 12.0)
    THRESHOLDS = np.array([0.0, 0.0, 0.7, 2.0])

    @pytest.fixture()
    def points(self):
        base = csr(150, self.BBOX, seed=61)
        return np.vstack([base, base[:40], base[:12], [[5.0, 5.0]] * 4])

    @pytest.mark.parametrize("ts", [[0.0], THRESHOLDS], ids=["zero", "mixed"])
    @pytest.mark.parametrize("method", ["naive", "grid"])
    def test_k_function(self, points, method, ts):
        np.testing.assert_array_equal(
            k_function(points, ts, method=method), brute_counts(points, ts)
        )

    @pytest.mark.parametrize("ts", [[0.0], THRESHOLDS], ids=["zero", "mixed"])
    def test_cross_k_function(self, points, ts):
        a, b = points[::2], points[1::2]
        np.testing.assert_array_equal(
            cross_k_function(a, b, ts), brute_table(a, b, ts).sum(axis=0)
        )

    @pytest.mark.parametrize("ts", [[0.0], THRESHOLDS], ids=["zero", "mixed"])
    def test_local_k_function(self, points, ts):
        result = local_k_function(points, ts, self.BBOX)
        np.testing.assert_array_equal(
            result.counts, brute_table(points, points, ts) - 1
        )

    @pytest.mark.parametrize("ts", [[0.0], THRESHOLDS], ids=["zero", "mixed"])
    def test_border_ripley_k(self, points, ts):
        table = brute_table(points, points, ts) - 1
        margin = np.minimum.reduce([
            points[:, 0], 20.0 - points[:, 0], points[:, 1], 12.0 - points[:, 1],
        ])
        want = [self.BBOX.area / points.shape[0] * table[margin >= s, d].mean()
                for d, s in enumerate(ts)]
        np.testing.assert_allclose(
            border_ripley_k(points, ts, self.BBOX), want, rtol=1e-12
        )

    def test_pushed_streaming_k(self, points):
        eng = StreamEngine(StreamWindow(capacity=120))
        kf = StreamingKFunction(self.BBOX, self.THRESHOLDS)
        eng.register("k", kf)
        times = np.arange(points.shape[0], dtype=np.float64)
        for c0 in range(0, points.shape[0], 50):
            eng.push(points[c0:c0 + 50], times[c0:c0 + 50])
            np.testing.assert_array_equal(
                kf.counts, brute_counts(eng.window.points, self.THRESHOLDS)
            )


class TestEdgeCorrection:
    def test_torus_requires_bbox(self, small_points):
        with pytest.raises(ParameterError, match="bbox"):
            k_function(small_points, [1.0], method="naive", edge_correction="torus")

    def test_torus_only_naive(self, small_points, bbox):
        with pytest.raises(ParameterError, match="naive"):
            k_function(
                small_points, [1.0], method="grid",
                bbox=bbox, edge_correction="torus",
            )

    def test_torus_counts_at_least_plain(self, random_points, bbox):
        """Wrapping can only shrink distances, so counts cannot drop."""
        ts = np.array([1.0, 3.0])
        plain = k_function(random_points, ts, method="naive")
        torus = k_function(
            random_points, ts, method="naive", bbox=bbox, edge_correction="torus"
        )
        assert (torus >= plain).all()

    def test_torus_removes_csr_bias(self, bbox):
        """Under CSR, torus-corrected Ripley K should track pi s^2 closely."""
        pts = csr(600, bbox, seed=55)
        s = np.array([1.0])
        k_plain = ripley_k(pts, s, bbox, method="naive")
        k_torus = ripley_k(pts, s, bbox, method="naive", edge_correction="torus")
        truth = np.pi * s ** 2
        assert abs(k_torus[0] - truth[0]) < abs(k_plain[0] - truth[0]) + 0.05

    def test_bad_edge_correction(self, small_points):
        with pytest.raises(ParameterError):
            k_function(small_points, [1.0], edge_correction="border")


class TestNormalisations:
    def test_ripley_csr_approximates_pi_s_squared(self, bbox):
        pts = csr(800, bbox, seed=77)
        s = np.array([0.5, 1.0])
        k = ripley_k(pts, s, bbox, method="naive", edge_correction="torus")
        np.testing.assert_allclose(k, np.pi * s ** 2, rtol=0.25)

    def test_l_function_csr_close_to_identity(self, bbox):
        pts = csr(800, bbox, seed=78)
        s = np.array([0.5, 1.0])
        l_vals = l_function(pts, s, bbox, method="naive", edge_correction="torus")
        np.testing.assert_allclose(l_vals, s, rtol=0.15)

    def test_ripley_needs_two_points(self, bbox):
        with pytest.raises(ParameterError):
            ripley_k([[1.0, 1.0]], [1.0], bbox)

    def test_clustered_exceeds_csr(self, clustered_points, random_points, bbox):
        s = np.array([0.8])
        k_clu = ripley_k(clustered_points, s, bbox)
        k_csr = ripley_k(random_points, s, bbox)
        assert k_clu[0] > 2.0 * k_csr[0]
