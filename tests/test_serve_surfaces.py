"""Lazily rendered maintained surfaces against an eager reference.

A :class:`~repro.serve.MaintainedSurface` renders each tile on its first
read.  Every tile it serves must equal, bit for bit, the same tile of an
eager surface that scattered each sync's new points onto the whole
raster as they arrived.  The eager reference here is a test-local
:class:`~repro.core.scatter.PatchScatter` fed the same sync batches.
"""

import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.kernels import get_kernel
from repro.core.scatter import PatchScatter
from repro.serve import AnalyticsService, Dataset, MaintainedSurface, ServeConfig

BBOX = repro.BoundingBox(0.0, 0.0, 8.0, 8.0)
TILE_PX = 16


class EagerSurface:
    """Scatters every sync batch onto the whole raster, as surfaces once did."""

    def __init__(self, zoom, bandwidth, kernel="quartic", dtype="float64"):
        npx = TILE_PX * 2 ** zoom
        self.scatter = PatchScatter(BBOX, (npx, npx), bandwidth,
                                    kernel=kernel, dtype=dtype)
        self.values = np.zeros((npx, npx), dtype=dtype)
        self.n = 0

    def sync(self, dataset):
        new = dataset.points[self.n:]
        if new.shape[0]:
            self.scatter.scatter(self.values, new, np.ones((new.shape[0], 1)))
        self.n += new.shape[0]

    def tile(self, tx, ty):
        block = self.values[tx * TILE_PX:(tx + 1) * TILE_PX,
                            ty * TILE_PX:(ty + 1) * TILE_PX]
        return np.maximum(block, 0.0)


def clustered_batch(rng, n):
    """A tight batch around a random centre, inside the window."""
    centre = rng.uniform(1.0, 7.0, 2)
    return np.clip(rng.normal(centre, 0.3, (n, 2)), 0.0, 8.0)


class TestLazyEqualsEager:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_syncs_and_reads(self, seed, dtype):
        rng = np.random.default_rng(seed)
        dataset = Dataset("d", BBOX.sample_uniform(300, rng), bbox=BBOX)
        zoom = 2
        surface = MaintainedSurface(dataset, zoom, 0.7, tile_px=TILE_PX,
                                    dtype=dtype)
        eager = EagerSurface(zoom, 0.7, dtype=dtype)
        side = 2 ** zoom
        reads = 0
        for _ in range(30):
            op = rng.random()
            if op < 0.3:
                dataset.ingest(clustered_batch(rng, int(rng.integers(1, 25))))
            elif op < 0.5:
                surface.sync(dataset)
                eager.sync(dataset)
            else:
                surface.sync(dataset)
                eager.sync(dataset)
                tx, ty = (int(v) for v in rng.integers(0, side, 2))
                got = surface.tile_values(tx, ty)
                assert got.dtype == np.dtype(dtype)
                assert got.tobytes() == eager.tile(tx, ty).tobytes()
                reads += 1
        assert reads > 0
        surface.sync(dataset)
        eager.sync(dataset)
        want = np.maximum(eager.values, 0.0)
        assert surface.snapshot().values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_service_tiles_equal_eager_surfaces(self, dtype):
        """Through the service: surfaces start at their first read."""
        rng = np.random.default_rng(11)
        points = BBOX.sample_uniform(400, rng)
        service = AnalyticsService(config=ServeConfig(tile_px=TILE_PX,
                                                      max_zoom=3))
        service.create_dataset("d", points, bbox=BBOX)
        dataset = service.store.get("d")
        eager = {}
        for step in range(40):
            if rng.random() < 0.3:
                service.ingest("d", clustered_batch(rng, 12))
                for ref in eager.values():   # every surface syncs on ingest
                    ref.sync(dataset)
                continue
            zoom = int(rng.integers(0, 4))
            bandwidth = float(rng.choice([0.4, 0.9]))
            tx, ty = (int(v) for v in rng.integers(0, 2 ** zoom, 2))
            tile = service.tile("d", zoom, tx, ty, bandwidth=bandwidth,
                                dtype=dtype)
            ref = eager.setdefault(
                (zoom, bandwidth), EagerSurface(zoom, bandwidth, dtype=dtype)
            )
            ref.sync(dataset)
            assert tile.values.tobytes() == ref.tile(tx, ty).tobytes(), step


class TestSyncReportsReadyTiles:
    def test_sync_returns_exactly_the_changed_ready_tiles(self):
        rng = np.random.default_rng(5)
        dataset = Dataset("d", BBOX.sample_uniform(300, rng), bbox=BBOX)
        surface = MaintainedSurface(dataset, 2, 0.5, tile_px=TILE_PX)
        surface.sync(dataset)
        ready = [(0, 0), (0, 1), (1, 0), (3, 3), (2, 1)]
        before = {t: surface.tile_values(*t) for t in ready}
        # A cluster at the (0, 0)/(0, 1)/(1, 0)/(1, 1) corner: (1, 1)
        # changes but was never read, so it is not reported.
        dataset.ingest(np.clip(rng.normal((2.0, 2.0), 0.2, (15, 2)), 0, 8))
        dirty = surface.sync(dataset)
        eager = EagerSurface(2, 0.5)
        eager.sync(dataset)
        changed = {
            t for t in ready if eager.tile(*t).tobytes() != before[t].tobytes()
        }
        assert set(dirty) == changed
        assert {(0, 0), (0, 1), (1, 0)} <= changed
        assert (3, 3) not in changed and (1, 1) not in set(dirty)
        assert list(dirty) == sorted(dirty)
        assert surface.sync(dataset) == ()   # already current
        for t in ready + [(1, 1)]:
            assert surface.tile_values(*t).tobytes() == eager.tile(*t).tobytes()

    def test_new_surface_scatters_nothing(self):
        dataset = Dataset("d", BBOX.sample_uniform(200, np.random.default_rng(1)),
                          bbox=BBOX)
        surface = MaintainedSurface(dataset, 3, 0.5, tile_px=TILE_PX)
        assert surface.sync(dataset) == ()
        assert surface.n_points == 200
        assert surface.tiles_ready == 0
        assert surface._tiles == {}   # no tile stored
        dataset.ingest([[4.0, 4.0]])
        assert surface.sync(dataset) == ()   # no tile ready: nothing to report
        assert surface._tiles == {}
        assert surface.render(2, 5) is True
        assert surface.render(2, 5) is False
        assert surface.tiles_ready == 1

    def test_sync_far_from_the_ready_tile_scatters_nothing(self):
        dataset = Dataset("d", BBOX.sample_uniform(200, np.random.default_rng(3)),
                          bbox=BBOX)
        surface = MaintainedSurface(dataset, 3, 0.3, tile_px=TILE_PX)
        surface.sync(dataset)
        before = surface.tile_values(0, 0)   # the corner (0, 0)-(1, 1)
        batch = np.random.default_rng(4).uniform(6.5, 7.5, (40, 2))
        dataset.ingest(batch)
        with obs.enabled() as trace:
            assert surface.sync(dataset) == ()
        assert trace.diagnostics().counter("scatter.points") == 0
        assert surface.tiles_ready == 1
        assert surface.tile_values(0, 0).tobytes() == before.tobytes()


class TestFootprint:
    def test_zoom9_surface_serves_one_tile_in_bounded_memory(self):
        """A 32,768-pixel-square level stores only the tile it served."""
        rng = np.random.default_rng(9)
        zoom, tile_px, bandwidth = 9, 64, 0.01
        tx, ty = 300, 200
        npx = tile_px * 2 ** zoom
        px = BBOX.width / npx
        centre = (np.array([tx, ty]) + 0.5) * tile_px * px
        points = np.vstack([BBOX.sample_uniform(500, rng),
                            rng.normal(centre, 0.01, (60, 2))])
        dataset = Dataset("d", points, bbox=BBOX)
        tracemalloc.start()
        try:
            surface = MaintainedSurface(dataset, zoom, bandwidth,
                                        tile_px=tile_px)
            surface.sync(dataset)
            values = surface.tile_values(tx, ty)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert surface.tiles_ready == 1 and values.shape == (tile_px, tile_px)
        # Direct kernel sum at the tile's pixel centres.
        xs = (tx * tile_px + np.arange(tile_px) + 0.5) * px
        ys = (ty * tile_px + np.arange(tile_px) + 0.5) * px
        dist = np.hypot(xs[:, None, None] - points[:, 0],
                        ys[None, :, None] - points[:, 1])
        want = get_kernel("quartic").evaluate(dist, bandwidth).sum(axis=-1)
        assert want.max() > 0.0
        np.testing.assert_allclose(values, want, rtol=1e-12,
                                   atol=1e-12 * want.max())


class TestServiceRenders:
    def test_one_zoom4_tile_renders_one_tile(self):
        service = AnalyticsService(config=ServeConfig(tile_px=TILE_PX,
                                                      max_zoom=4))
        service.create_dataset("d", BBOX.sample_uniform(500,
                               np.random.default_rng(2)), bbox=BBOX)
        service.tile("d", 4, 5, 7, bandwidth=0.3)
        service.tile("d", 4, 5, 7, bandwidth=0.3)   # cache hit
        snap = service.stats_snapshot()
        assert snap["counters"]["surfaces.tiles_rendered"] == 1
        assert snap["latency_ms"]["tile.render"]["count"] == 1
        (surface,) = service._surfaces.values()
        assert surface.tiles_ready == 1
        # An ingest that dirties the ready tile re-serves it without a
        # second render: sync kept it current.
        report = service.ingest("d", [[2.75, 3.75]])  # inside tile (5, 7)
        assert report["invalidated_tiles"] == 1
        again = service.tile("d", 4, 5, 7, bandwidth=0.3)
        assert again.version == 1
        counters = service.stats_snapshot()["counters"]
        assert counters["surfaces.tiles_rendered"] == 1
        assert counters["tile.computed"] == 2

    def test_concurrent_reads_of_distinct_tiles_match_serial_reads(self):
        points = BBOX.sample_uniform(600, np.random.default_rng(8))
        tiles = [(tx, ty) for tx in range(4) for ty in range(4)]

        def fresh():
            service = AnalyticsService(config=ServeConfig(
                tile_px=TILE_PX, max_zoom=3, max_inflight=len(tiles)))
            service.create_dataset("d", points, bbox=BBOX)
            return service

        serial = fresh()
        want = {t: serial.tile("d", 2, *t, bandwidth=0.6).values
                for t in tiles}
        for _ in range(3):
            service = fresh()
            barrier = threading.Barrier(len(tiles))
            got, errors = {}, []

            def read(t):
                try:
                    barrier.wait(timeout=10.0)
                    got[t] = service.tile("d", 2, *t, bandwidth=0.6).values
                except BaseException as exc:  # re-raised in the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(t,)) for t in tiles]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            assert not errors
            assert all(got[t].tobytes() == want[t].tobytes() for t in tiles)
            counters = service.stats_snapshot()["counters"]
            assert counters["surfaces.tiles_rendered"] == len(tiles)
