"""Tests for simple/universal kriging, FDR control, and border-corrected K."""

import numpy as np
import pytest

from repro.core.autocorrelation import fdr_mask, fdr_threshold
from repro.core.interpolation import (
    VariogramModel,
    ordinary_kriging,
    simple_kriging,
    universal_kriging,
)
from repro.core.kfunction import border_ripley_k, ripley_k
from repro.data import csr, thomas
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox
from repro.index import GridIndex, threshold_counts


@pytest.fixture(scope="module")
def model():
    return VariogramModel("exponential", nugget=0.0, psill=1.0, range_=3.0)


@pytest.fixture(scope="module")
def stationary_field():
    rng = np.random.default_rng(501)
    pts = rng.uniform(0, 10, size=(70, 2))
    vals = 5.0 + np.sin(pts[:, 0] * 0.8) * np.cos(pts[:, 1] * 0.6)
    return pts, vals


class TestSimpleKriging:
    def test_exact_at_samples(self, stationary_field, model):
        pts, vals = stationary_field
        res = simple_kriging(pts, vals, pts, model, mean=5.0)
        np.testing.assert_allclose(res.predictions, vals, atol=1e-6)

    def test_far_query_returns_mean(self, stationary_field, model):
        pts, vals = stationary_field
        res = simple_kriging(pts, vals, [[1e5, 1e5]], model, mean=5.0)
        assert res.predictions[0] == pytest.approx(5.0, abs=1e-6)
        assert res.variances[0] == pytest.approx(model.sill, rel=1e-6)

    def test_variance_zero_at_samples(self, stationary_field, model):
        pts, vals = stationary_field
        res = simple_kriging(pts, vals, pts[:5], model, mean=5.0)
        assert res.variances.max() < 1e-6

    def test_close_to_ordinary_with_true_mean(self, stationary_field, model, rng):
        pts, vals = stationary_field
        queries = rng.uniform(2, 8, size=(15, 2))
        sk = simple_kriging(pts, vals, queries, model, mean=float(vals.mean()))
        ok = ordinary_kriging(pts, vals, queries, model)
        np.testing.assert_allclose(sk.predictions, ok.predictions, atol=0.25)


class TestUniversalKriging:
    def test_recovers_linear_trend(self, model, rng):
        """A pure linear field must be reproduced exactly beyond the data."""
        pts = rng.uniform(0, 10, size=(80, 2))
        vals = 2.0 + 0.5 * pts[:, 0] - 0.3 * pts[:, 1]
        queries = np.array([[12.0, 12.0], [-2.0, 5.0]])  # extrapolation!
        res = universal_kriging(pts, vals, queries, model, k_neighbors=None)
        expected = 2.0 + 0.5 * queries[:, 0] - 0.3 * queries[:, 1]
        np.testing.assert_allclose(res.predictions, expected, atol=1e-5)

    def test_ordinary_biased_under_trend_uk_not(self, model, rng):
        pts = rng.uniform(0, 10, size=(80, 2))
        vals = 0.8 * pts[:, 0]
        query = np.array([[13.0, 5.0]])  # beyond the sampled range
        ok = ordinary_kriging(pts, vals, query, model, k_neighbors=None)
        uk = universal_kriging(pts, vals, query, model, k_neighbors=None)
        truth = 0.8 * 13.0
        assert abs(uk.predictions[0] - truth) < abs(ok.predictions[0] - truth)

    def test_exact_at_samples(self, stationary_field, model):
        pts, vals = stationary_field
        res = universal_kriging(pts, vals, pts[:10], model)
        np.testing.assert_allclose(res.predictions, vals[:10], atol=1e-5)

    def test_needs_enough_samples(self, model):
        with pytest.raises(DataError):
            universal_kriging([[0, 0], [1, 1]], [1.0, 2.0], [[0.5, 0.5]], model)
        with pytest.raises(ParameterError):
            universal_kriging(
                np.random.default_rng(1).uniform(size=(10, 2)),
                np.arange(10.0), [[0.5, 0.5]], model, k_neighbors=2,
            )


class TestFDR:
    def test_null_p_values_mostly_survive(self, rng):
        p = rng.uniform(size=500)
        mask = fdr_mask(p, alpha=0.05)
        # Under the global null BH rejects nothing in most realisations;
        # in any case far fewer than the naive 5% * 500 = 25.
        assert mask.sum() <= 5

    def test_strong_signals_rejected(self, rng):
        p = np.concatenate([rng.uniform(size=200), np.full(20, 1e-8)])
        mask = fdr_mask(p, alpha=0.05)
        assert mask[-20:].all()  # every true signal survives
        assert mask[:200].sum() <= 5  # almost no false rejections

    def test_threshold_monotone_in_alpha(self, rng):
        p = rng.uniform(size=100) * 0.2
        assert fdr_threshold(p, 0.01) <= fdr_threshold(p, 0.10)

    def test_all_tiny_all_rejected(self):
        mask = fdr_mask(np.full(10, 1e-6))
        assert mask.all()

    def test_validation(self):
        with pytest.raises(DataError):
            fdr_mask([])
        with pytest.raises(DataError):
            fdr_mask([1.5])
        with pytest.raises(ParameterError):
            fdr_mask([0.5], alpha=0.0)

    def test_integrates_with_local_moran(self, random_points, rng):
        from repro.core.autocorrelation import knn_weights, local_morans_i

        w = knn_weights(random_points, 6)
        z = rng.normal(size=random_points.shape[0])  # pure noise
        local = local_morans_i(z, w, permutations=99, seed=502)
        naive_hits = (local.p_values < 0.05).sum()
        fdr_hits = fdr_mask(local.p_values, 0.05).sum()
        assert fdr_hits <= naive_hits  # FDR can only tighten


class TestBorderRipleyK:
    BBOX = BoundingBox(0.0, 0.0, 20.0, 12.0)

    def test_reduces_csr_bias(self):
        pts = csr(800, self.BBOX, seed=511)
        ts = np.array([1.0, 2.0])
        truth = np.pi * ts ** 2
        plain = ripley_k(pts, ts, self.BBOX)
        border = border_ripley_k(pts, ts, self.BBOX)
        assert np.abs(border - truth).sum() < np.abs(plain - truth).sum()

    @pytest.mark.parametrize("method", ["naive", "grid"])
    def test_methods_agree(self, method):
        # The brute-force definition, with its pair counts taken from a dense
        # distance matrix or from threshold_counts over a grid index.
        pts = csr(300, self.BBOX, seed=512)
        ts = np.array([0.0, 0.5, 1.5])
        if method == "naive":
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            counts = (d[:, :, None] <= ts).sum(axis=1)
        else:
            counts = threshold_counts(GridIndex(pts, 1.5), pts, ts)
        margin = np.minimum.reduce([pts[:, 0], 20.0 - pts[:, 0],
                                    pts[:, 1], 12.0 - pts[:, 1]])
        want = [self.BBOX.area / 300 * (counts[margin >= s, d] - 1).mean()
                for d, s in enumerate(ts)]
        got = border_ripley_k(pts, ts, self.BBOX)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_nan_when_no_interior(self):
        pts = csr(100, self.BBOX, seed=513)
        out = border_ripley_k(pts, [100.0], self.BBOX)
        assert np.isnan(out[0])

    def test_clustered_still_above_csr(self):
        clu = thomas(500, 4, 0.5, self.BBOX, seed=514)
        uni = csr(500, self.BBOX, seed=515)
        s = np.array([1.0])
        assert border_ripley_k(clu, s, self.BBOX)[0] > 2 * border_ripley_k(
            uni, s, self.BBOX
        )[0]
