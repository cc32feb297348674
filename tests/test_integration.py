"""Cross-module integration tests: complete user workflows end to end."""

import numpy as np
import pytest

import repro
from repro.core.kdv import MultiSurfaceAccumulator
from repro.core.nkdv import nkdv
from repro.data import (
    hawkes_st,
    hk_covid,
    network_accidents,
    read_dataset_csv,
    write_csv,
)
from repro.network import grid_network


class TestCsvToHotspotWorkflow:
    """The quickstart path: file in, significance-tested hotspot map out."""

    def test_full_workflow(self, tmp_path):
        data = hk_covid(250, 350, seed=301)
        csv_path = tmp_path / "cases.csv"
        write_csv(csv_path, data.points, times=data.times)

        loaded = read_dataset_csv(csv_path, margin=0.5)
        report = repro.HotspotAnalysis(loaded.points, loaded.bbox).run(
            size=(48, 32), n_simulations=9, seed=302
        )
        assert report.significant
        assert report.hotspots

        # The hotspot contour closes around the densest region.
        level = np.quantile(report.density.values, 0.97)
        polylines = repro.contour_polylines(report.density, level)
        assert polylines
        peak = report.hotspots[0].peak
        # The peak lies inside the bounding box of some contour.
        enclosed = any(
            line[:, 0].min() <= peak[0] <= line[:, 0].max()
            and line[:, 1].min() <= peak[1] <= line[:, 1].max()
            for line in polylines
        )
        assert enclosed

        # And the map renders/exports.
        out = tmp_path / "map.ppm"
        repro.write_ppm(out, report.density)
        assert out.stat().st_size > 100

    def test_screens_agree_with_envelope(self):
        """Quadrat, Clark-Evans and the K-envelope agree on clustering."""
        data = hk_covid(300, 300, seed=303).spatial()
        quadrat = repro.quadrat_test(data.points, data.bbox)
        ce = repro.clark_evans(data.points, data.bbox)
        plot = repro.k_function_plot(
            data.points, data.bbox, [1.0, 2.0, 4.0], n_simulations=19, seed=304
        )
        assert not quadrat.is_csr
        assert ce.pattern == "clustered"
        assert plot.clustered_mask().any()


class TestNetworkWorkflow:
    """Accidents on a road network: NKDV raster + network-K significance."""

    def test_end_to_end(self, tmp_path):
        net = grid_network(8, 8, spacing=1.0)
        events = network_accidents(
            net, 150, hotspot_edges=[0, 1, 2], hotspot_fraction=0.85, seed=305
        )
        result = nkdv(net, events, 0.2, 1.0, method="shared")
        grid = result.to_density_grid((64, 64))
        out = tmp_path / "network.ppm"
        repro.write_ppm(out, grid, "viridis")
        assert out.exists()

        plot = repro.network_k_function_plot(
            net, events, [0.5, 1.0, 2.0], n_simulations=9, seed=306
        )
        assert plot.clustered_mask().any()

        # Equal-split never increases any lixel's density.
        split = nkdv(net, events, 0.2, 1.0, method="shared", split="equal")
        assert (split.densities <= result.densities + 1e-9).all()


class TestEpidemicWorkflow:
    """Hawkes simulation -> interaction test -> sliding-window dashboard."""

    def test_end_to_end(self):
        bbox = repro.BoundingBox(0.0, 0.0, 15.0, 15.0)
        pts, times = hawkes_st(
            bbox, horizon=60.0, mu=0.01, alpha=0.6, beta=0.4, sigma=0.5, seed=307
        )
        assert pts.shape[0] > 30

        plot = repro.st_k_function_plot(
            pts, times, bbox, [0.5, 1.5], [2.0, 6.0],
            n_simulations=9, null="permute", seed=308,
        )
        assert plot.observed.shape == (2, 2)

        acc = MultiSurfaceAccumulator(bbox, (32, 32), bandwidth=1.0)
        half = int(np.searchsorted(times, 30.0))
        early, late = pts[:half], pts[half:]
        acc.add_weighted(early, np.ones((half, 1)))
        first_grid = acc.surface(0)
        acc.add_weighted(late, np.ones((late.shape[0], 1)))
        acc.remove_weighted(early, np.ones((half, 1)))
        second_grid = acc.surface(0)
        assert acc.n_points == pts.shape[0] - half
        # The two windows describe different epochs of the epidemic.
        assert first_grid.sum() != pytest.approx(second_grid.sum())


class TestInterpolationWorkflow:
    """Sensor field -> variogram -> kriging vs IDW -> autocorrelation."""

    def test_end_to_end(self, rng):
        bbox = repro.BoundingBox(0.0, 0.0, 12.0, 12.0)
        sensors = bbox.sample_uniform(120, rng)
        field = np.exp(-((sensors[:, 0] - 6) ** 2 + (sensors[:, 1] - 6) ** 2) / 9.0)
        readings = field + rng.normal(0, 0.02, 120)

        pred, var, model = repro.kriging_grid(
            sensors, readings, bbox, (24, 24), seed=309
        )
        idw = repro.idw_grid(sensors, readings, bbox, (24, 24), method="cutoff", radius=3.0)

        # Both surfaces place the peak near the true bump at (6, 6).
        for surface in (pred, idw):
            x, y = surface.argmax_coords()
            assert np.hypot(x - 6.0, y - 6.0) < 2.0

        # The interpolated surface is strongly autocorrelated.
        w = repro.lattice_weights(24, 24, "queen")
        moran = repro.morans_i(pred.values.ravel(), w)
        geary = repro.gearys_c(pred.values.ravel(), w)
        assert moran.is_clustered
        assert geary.positive_autocorrelation

    def test_gi_star_finds_the_bump(self, rng):
        bbox = repro.BoundingBox(0.0, 0.0, 12.0, 12.0)
        sensors = bbox.sample_uniform(150, rng)
        readings = np.exp(-((sensors[:, 0] - 3) ** 2 + (sensors[:, 1] - 3) ** 2) / 4.0)
        w = repro.distance_band_weights(sensors, 2.0)
        gi = repro.local_gi_star(readings, w)
        near = np.hypot(sensors[:, 0] - 3.0, sensors[:, 1] - 3.0) < 1.5
        assert gi[near].mean() > 1.5


class TestCrimeWorkflow:
    """Crime stand-in: clustering confirmed three independent ways."""

    def test_tools_agree(self):
        data = repro.data.chicago_crime(800, seed=310)
        # 1. Clark-Evans screen.
        assert repro.clark_evans(data.points, data.bbox).pattern == "clustered"
        # 2. Local K flags cluster members.
        local = repro.local_k_function(data.points, [1.0], data.bbox)
        assert local.cluster_members(0).mean() > 0.3
        # 3. DBSCAN finds clusters covering most points.
        labels = repro.dbscan(data.points, eps=0.6, min_pts=8)
        assert labels.max() >= 1
        assert (labels >= 0).mean() > 0.5
