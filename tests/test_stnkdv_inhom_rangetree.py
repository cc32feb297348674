"""Tests for network STKDV, the inhomogeneous K-function, and the range tree."""

import tracemalloc

import numpy as np
import pytest

from repro.core.kfunction import inhomogeneous_k, intensity_at_points, ripley_k
from repro.core.nkdv import nkdv
from repro.core.stnkdv import stnkdv
from repro.data import chicago_crime, csr, inhomogeneous, network_accidents, thomas
from repro.errors import DataError, ParameterError
from repro.geometry import BoundingBox
from repro.index import RangeTree
from repro.network import grid_network


class TestSTNKDV:
    @pytest.fixture()
    def workload(self, road_network, rng):
        events = network_accidents(road_network, 100, seed=401)
        times = rng.uniform(0.0, 100.0, size=100)
        return events, times

    def test_frame_matches_weighted_nkdv(self, road_network, workload):
        """A frame equals NKDV over the temporally-weighted active events."""
        events, times = workload
        t, b_t = 50.0, 20.0
        res = stnkdv(road_network, events, times, 0.25, [t], 1.0, b_t)

        from repro.core.kernels import get_kernel

        k_t = get_kernel("epanechnikov")
        w = np.asarray(k_t.evaluate(np.abs(times - t), b_t))
        active = w > 0
        ref = nkdv(
            road_network,
            [ev for ev, keep in zip(events, active) if keep],
            0.25, 1.0,
            event_weights=w[active],
        )
        np.testing.assert_allclose(res.frame(0), ref.densities, atol=1e-10)

    def test_temporal_locality(self, road_network, rng):
        """Events at t~10 must not contribute to a frame at t=90."""
        events = network_accidents(road_network, 60, seed=402)
        times = rng.uniform(5.0, 15.0, size=60)
        res = stnkdv(road_network, events, times, 0.25, [10.0, 90.0], 1.0, 10.0)
        assert res.frame(0).max() > 0
        assert res.frame(1).max() == 0.0
        assert res.hottest_lixel_track()[1] == -1

    def test_mass_tracks_case_load(self, road_network, rng):
        events = network_accidents(road_network, 90, seed=403)
        times = np.concatenate([rng.uniform(0, 30, 30), rng.uniform(50, 80, 60)])
        res = stnkdv(road_network, events, times, 0.25, [15.0, 65.0], 1.0, 15.0)
        mass = res.total_mass()
        assert mass[1] > mass[0]

    def test_validation(self, road_network, workload):
        events, times = workload
        with pytest.raises(ParameterError, match="empty"):
            stnkdv(road_network, [], [], 0.25, [1.0], 1.0, 1.0)
        with pytest.raises(ParameterError, match="frame_times"):
            stnkdv(road_network, events, times, 0.25, [], 1.0, 1.0)


class TestInhomogeneousK:
    BBOX = BoundingBox(0.0, 0.0, 20.0, 20.0)

    def test_trend_vs_contagion(self):
        """The paper-grade use-case: a ramp is trend, a Thomas process isn't."""
        ts = np.array([0.5, 1.0, 1.5])
        pi_s2 = np.pi * ts ** 2

        ramp = inhomogeneous(1200, lambda x, y: x ** 2, self.BBOX, seed=411)
        plain = ripley_k(ramp, ts, self.BBOX)
        corrected = inhomogeneous_k(ramp, ts, self.BBOX, bandwidth=2.5)
        # Plain K wildly overshoots pi s^2; the corrected K comes back close.
        assert (plain > 1.3 * pi_s2).all()
        assert np.abs(corrected / pi_s2 - 1.0).max() < 0.45

        clustered = thomas(1200, 6, 0.4, self.BBOX, seed=412)
        k_inhom = inhomogeneous_k(clustered, ts, self.BBOX, bandwidth=4.0)
        # Genuine clustering survives the intensity correction at small s.
        assert k_inhom[0] > 1.5 * pi_s2[0]

    def test_csr_close_to_pi_s2(self):
        pts = csr(1000, self.BBOX, seed=413)
        ts = np.array([0.5, 1.0])
        k = inhomogeneous_k(pts, ts, self.BBOX, bandwidth=3.0)
        np.testing.assert_allclose(k, np.pi * ts ** 2, rtol=0.4)

    def test_explicit_intensity(self):
        pts = csr(300, self.BBOX, seed=414)
        lam = np.full(300, 300 / self.BBOX.area)
        k = inhomogeneous_k(pts, [1.0], self.BBOX, intensity=lam)
        # With the exact constant intensity this reduces to Ripley's K up
        # to the (n-1)/n normalisation difference between the estimators
        # (K_inhom divides by lambda^2 = n^2/|A|^2, Ripley by n(n-1)).
        plain = ripley_k(pts, [1.0], self.BBOX)
        assert k[0] == pytest.approx(plain[0] * 299.0 / 300.0, rel=1e-9)

    def test_intensity_validation(self):
        pts = csr(50, self.BBOX, seed=415)
        with pytest.raises(ParameterError, match="bandwidth"):
            inhomogeneous_k(pts, [1.0], self.BBOX)
        with pytest.raises(DataError, match="length"):
            inhomogeneous_k(pts, [1.0], self.BBOX, intensity=[1.0, 2.0])
        with pytest.raises(DataError):
            inhomogeneous_k(pts, [1.0], self.BBOX, intensity=-np.ones(50))

    def test_intensity_estimate_scales(self):
        """The leave-one-out intensity integrates to roughly n / |A|."""
        pts = csr(800, self.BBOX, seed=416)
        lam = intensity_at_points(pts, self.BBOX, bandwidth=2.0)
        assert lam.mean() == pytest.approx(800 / self.BBOX.area, rel=0.25)

    def test_memory_stays_bounded(self):
        """Neighbour lists are gathered one query block at a time: at
        n = 16k the traced peak stays far below the hundreds of MiB that
        gathering every query's neighbours at once would take."""
        data = chicago_crime(16_000)
        pts, bbox = data.points, data.bbox
        for run in (
            lambda: intensity_at_points(pts, bbox, bandwidth=1.0),
            lambda: inhomogeneous_k(pts, np.linspace(0.1, 1.5, 8), bbox,
                                    intensity=lam),
        ):
            tracemalloc.start()
            try:
                lam = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20


class TestRangeTree:
    @pytest.fixture(scope="class")
    def tree_and_points(self):
        rng = np.random.default_rng(421)
        pts = rng.uniform(0, 10, size=(400, 2))
        return RangeTree(pts), pts

    def test_rect_count_matches_brute(self, tree_and_points, rng):
        tree, pts = tree_and_points
        for _ in range(25):
            x0, y0 = rng.uniform(0, 8, size=2)
            x1, y1 = x0 + rng.uniform(0, 4), y0 + rng.uniform(0, 4)
            brute = int(
                (
                    (pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                    & (pts[:, 1] >= y0) & (pts[:, 1] <= y1)
                ).sum()
            )
            assert tree.rect_count(x0, x1, y0, y1) == brute

    def test_rect_indices_match(self, tree_and_points):
        tree, pts = tree_and_points
        idx = set(tree.rect_indices(2.0, 6.0, 3.0, 7.0).tolist())
        brute = set(
            np.flatnonzero(
                (pts[:, 0] >= 2.0) & (pts[:, 0] <= 6.0)
                & (pts[:, 1] >= 3.0) & (pts[:, 1] <= 7.0)
            ).tolist()
        )
        assert idx == brute

    def test_disc_count_matches(self, tree_and_points):
        tree, pts = tree_and_points
        c = (5.0, 5.0)
        brute = int((((pts - np.asarray(c)) ** 2).sum(axis=1) <= 4.0).sum())
        assert tree.range_count_disc(c, 2.0) == brute

    def test_boundary_inclusive(self):
        tree = RangeTree([[1.0, 1.0], [2.0, 2.0]])
        assert tree.rect_count(1.0, 2.0, 1.0, 2.0) == 2
        assert tree.rect_count(1.0, 1.0, 1.0, 1.0) == 1

    def test_empty_query(self, tree_and_points):
        tree, _ = tree_and_points
        assert tree.rect_count(20.0, 30.0, 20.0, 30.0) == 0
        assert tree.rect_indices(20.0, 30.0, 20.0, 30.0).size == 0

    def test_invalid_bounds(self, tree_and_points):
        tree, _ = tree_and_points
        with pytest.raises(ParameterError):
            tree.rect_count(5.0, 2.0, 0.0, 1.0)

    def test_duplicates(self):
        tree = RangeTree([[3.0, 3.0]] * 9)
        assert tree.rect_count(3.0, 3.0, 3.0, 3.0) == 9
