"""Serving layer: cache, coalescer, datasets, service semantics, HTTP."""

import http.client
import io
import json
import sys
import threading
import urllib.request
from collections import OrderedDict
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import DataError, ParameterError, ReproError, ServeError
from repro.serve import (
    AnalyticsService,
    Coalescer,
    Dataset,
    DatasetStore,
    LRUCache,
    ServeConfig,
    create_server,
)
from repro.serve.frontend import ReproRequestHandler, _ppm_bytes

BBOX = repro.BoundingBox(0.0, 0.0, 8.0, 8.0)
RNG = np.random.default_rng(42)
POINTS = BBOX.sample_uniform(500, RNG)


def make_service(**overrides):
    config = ServeConfig(tile_px=32, max_zoom=3, **overrides)
    service = AnalyticsService(config=config)
    service.create_dataset("d", POINTS, bbox=BBOX)
    return service


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=7) == 7

    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_invalidate_by_key_and_predicate(self):
        cache = LRUCache(8)
        for tx in range(4):
            cache.put(("tile", 0, tx), tx)
        assert cache.invalidate(key=("tile", 0, 1)) == 1
        assert cache.invalidate(key=("tile", 0, 1)) == 0
        removed = cache.invalidate(predicate=lambda k: k[2] >= 2)
        assert removed == 2
        assert len(cache) == 1

    def test_invalidate_requires_exactly_one_selector(self):
        cache = LRUCache(2)
        with pytest.raises(ParameterError):
            cache.invalidate()
        with pytest.raises(ParameterError):
            cache.invalidate(key="a", predicate=lambda k: True)

    def test_bad_capacity(self):
        with pytest.raises(ParameterError):
            LRUCache(0)

    def test_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["capacity"] == 2

    def test_sized_entries_evict_by_total_size(self):
        cache = LRUCache(10)
        cache.put("a", b"aaaa", size=4)
        cache.put("b", b"bbbb", size=4)
        cache.get("a")          # "b" is now the LRU entry
        cache.put("c", b"ccc", size=3)
        assert cache.peek("b") is None
        assert cache.stats()["held"] == 7
        cache.put("a", b"a", size=1)   # a replacement frees its old size
        assert cache.stats()["held"] == 4

    def test_entry_larger_than_capacity_is_not_kept(self):
        cache = LRUCache(10)
        cache.put("a", 1, size=4)
        cache.put("b", 2, size=4)
        cache.put("b", 3, size=11)
        assert cache.peek("b") is None   # dropped, older value included
        assert cache.peek("a") == 1      # nothing else was evicted
        assert cache.stats()["held"] == 4

    def test_peek_leaves_recency_and_counts(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        cache.put("c", 3)       # "a" is still the LRU entry
        assert cache.peek("a") is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 20),
        sized=st.booleans(),
        ops=st.lists(st.tuples(
            st.sampled_from(["put", "get", "invalidate", "clear"]),
            st.integers(0, 5),
            st.integers(0, 12),
        ), max_size=60),
    )
    def test_matches_an_lru_model(self, capacity, sized, ops):
        """Held size is the sum of the entries' sizes, within capacity;
        eviction takes the least recently used first; without sizes every
        entry counts 1, so capacity is an entry count."""
        cache = LRUCache(capacity)
        model: OrderedDict = OrderedDict()   # key -> size, LRU first
        for op, key, size in ops:
            if op == "put":
                if sized:
                    cache.put(key, (key, size), size=size)
                else:
                    size = 1
                    cache.put(key, (key, size))
                model.pop(key, None)
                if size <= capacity:
                    model[key] = size
                    while sum(model.values()) > capacity:
                        model.popitem(last=False)
            elif op == "get":
                value = cache.get(key)
                if key in model:
                    model.move_to_end(key)
                    assert value == (key, model[key])
                else:
                    assert value is None
            elif op == "invalidate":
                assert cache.invalidate(key=key) == int(
                    model.pop(key, None) is not None)
            else:
                assert cache.clear() == len(model)
                model.clear()
            held = cache.stats()["held"]
            assert held == sum(model.values()) <= capacity
            assert {k for k in range(6) if cache.peek(k) is not None} \
                == set(model)
            assert len(cache) == len(model)


# ---------------------------------------------------------------------------
# Coalescer
# ---------------------------------------------------------------------------


class TestCoalescer:
    def test_single_caller_leads(self):
        c = Coalescer()
        result, led = c.run("k", lambda: 41 + 1)
        assert (result, led) is not None
        assert result == 42 and led
        assert c.executions == 1 and c.coalesced == 0
        assert c.inflight() == 0

    def test_n_threads_one_execution(self):
        """The satellite contract: N concurrent identical requests, one compute."""
        c = Coalescer()
        release = threading.Event()
        entered = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            release.wait(timeout=10.0)
            return "surface"

        results = []

        def worker():
            results.append(c.run("tile", compute))

        leader = threading.Thread(target=worker)
        leader.start()
        assert entered.wait(timeout=10.0)
        followers = [threading.Thread(target=worker) for _ in range(5)]
        for t in followers:
            t.start()
        # Wait until all five are registered on the flight, then release.
        deadline = threading.Event()
        for _ in range(2000):
            if c.coalesced == 5:
                break
            deadline.wait(0.005)
        assert c.coalesced == 5
        release.set()
        leader.join(timeout=10.0)
        for t in followers:
            t.join(timeout=10.0)
        assert len(calls) == 1, "exactly one execution for six callers"
        assert len(results) == 6
        assert all(r[0] == "surface" for r in results)
        assert sum(1 for r in results if r[1]) == 1
        assert c.executions == 1

    def test_leader_error_propagates_to_followers(self):
        c = Coalescer()
        release = threading.Event()
        entered = threading.Event()

        def compute():
            entered.set()
            release.wait(timeout=10.0)
            raise DataError("boom")

        errors = []

        def worker():
            try:
                c.run("k", compute)
            except ReproError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker)]
        threads[0].start()
        assert entered.wait(timeout=10.0)
        threads.append(threading.Thread(target=worker))
        threads[1].start()
        for _ in range(2000):
            if c.coalesced == 1:
                break
            threading.Event().wait(0.005)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert len(errors) == 2
        assert all(isinstance(e, DataError) for e in errors)
        # Flight retired: the next arrival recomputes.
        result, led = c.run("k", lambda: "fresh")
        assert result == "fresh" and led

    def test_distinct_keys_do_not_coalesce(self):
        c = Coalescer()
        c.run("a", lambda: 1)
        c.run("b", lambda: 2)
        assert c.executions == 2 and c.coalesced == 0


# ---------------------------------------------------------------------------
# Dataset / DatasetStore
# ---------------------------------------------------------------------------


class TestDataset:
    def test_identity_stable_content_advances(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        identity = d.identity
        before = d.content_fingerprint()
        d.ingest(np.array([[4.0, 4.0]]))
        assert d.identity == identity
        assert d.content_fingerprint() != before
        assert d.version == 1
        assert d.n == POINTS.shape[0] + 1

    def test_points_since(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        batch = np.array([[1.0, 1.0], [2.0, 2.0]])
        d.ingest(batch)
        pts, ts = d.points_since(POINTS.shape[0])
        np.testing.assert_array_equal(pts, batch)
        assert ts.shape == (2,)

    def test_ingest_outside_bbox_rejected(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        with pytest.raises(DataError, match="outside"):
            d.ingest(np.array([[99.0, 99.0]]))

    def test_times_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset("d", POINTS, times=np.zeros(3), bbox=BBOX)

    def test_defensive_copies(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        d.points[:] = -1.0
        np.testing.assert_array_equal(d.points, POINTS)

    def test_many_small_ingests_equal_a_vstack(self):
        rng = np.random.default_rng(7)
        d = Dataset("d", POINTS, bbox=BBOX)
        batches, times = [POINTS], [np.arange(POINTS.shape[0], dtype=float)]
        for _ in range(2000):
            batch = BBOX.sample_uniform(int(rng.integers(20, 51)), rng)
            ts = rng.uniform(0.0, 1e6, batch.shape[0])
            d.ingest(batch, times=ts)
            batches.append(batch)
            times.append(ts)
        assert np.array_equal(d.points, np.vstack(batches))
        assert np.array_equal(d.times, np.concatenate(times))
        assert d.n == d.points.shape[0] == d.summary()["n"]
        assert d.version == 2000

    def test_prefix_view_is_read_only_and_stable(self):
        d = Dataset("d", POINTS, bbox=BBOX)
        view = d.prefix(POINTS.shape[0])
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = -1.0
        # Later ingests append and regrow the buffer; the view keeps the
        # prefix it was taken over.
        for k in range(50):
            d.ingest(np.full((40, 2), 1.0 + k / 10.0))
        np.testing.assert_array_equal(view, POINTS)
        np.testing.assert_array_equal(d.prefix(d.n)[:POINTS.shape[0]], POINTS)
        with pytest.raises(ParameterError):
            d.prefix(d.n + 1)

    def test_concurrent_ingests_keep_prefix_views_stable(self):
        import sys

        d = Dataset("d", POINTS, bbox=BBOX)
        views = []

        def writer(k):
            for _ in range(200):
                d.ingest(np.full((7, 2), 1.0 + k))

        def reader():
            for _ in range(400):
                views.append(d.prefix(d.n))

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(3)]
        threads.append(threading.Thread(target=reader))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        final = d.points
        assert final.shape[0] == POINTS.shape[0] + 3 * 200 * 7 == d.n
        for k in range(3):
            assert (final[:, 0] == 1.0 + k).sum() == 200 * 7
        for view in views:
            np.testing.assert_array_equal(view, final[:view.shape[0]])

    def test_store(self):
        store = DatasetStore()
        store.create("a", POINTS, bbox=BBOX)
        assert store.names() == ("a",)
        with pytest.raises(ParameterError, match="exists"):
            store.create("a", POINTS, bbox=BBOX)
        with pytest.raises(ServeError, match="unknown dataset"):
            store.get("nope")
        assert isinstance(store.get("a"), Dataset)
        assert store.summaries()[0]["name"] == "a"

    def test_serve_error_is_lookup_error(self):
        assert issubclass(ServeError, LookupError)
        assert issubclass(ServeError, ReproError)


# ---------------------------------------------------------------------------
# AnalyticsService: tiles, caching, coalescing, invalidation
# ---------------------------------------------------------------------------


class TestServiceTiles:
    def test_cache_hit_is_bit_identical_to_cold_compute(self):
        service = make_service()
        cold = service.tile("d", 1, 0, 1, bandwidth=0.8)
        warm = service.tile("d", 1, 0, 1, bandwidth=0.8)
        assert warm is cold  # same cached TileResult object
        fresh = make_service().tile("d", 1, 0, 1, bandwidth=0.8)
        np.testing.assert_array_equal(cold.values, fresh.values)
        snap = service.stats_snapshot()
        assert snap["counters"]["tile.cache_hit"] == 1
        assert snap["counters"]["tile.cache_miss"] == 1

    def test_tile_payload_shape_and_bbox(self):
        service = make_service()
        result = service.tile("d", 2, 3, 0, bandwidth=0.8)
        assert result.values.shape == (32, 32)
        payload = result.to_payload()
        assert payload["zoom"] == 2 and payload["tx"] == 3
        assert len(payload["values"]) == 32
        # tile (3, 0) of a 4x4 lattice covers the bbox's right-bottom corner
        xmin, ymin, xmax, ymax = payload["bbox"]
        assert xmax == pytest.approx(BBOX.xmax)
        assert ymin == pytest.approx(BBOX.ymin)

    def test_zoom_and_coordinate_validation(self):
        service = make_service()
        with pytest.raises(ParameterError, match="zoom"):
            service.tile("d", 9, 0, 0, bandwidth=0.8)
        with pytest.raises(ParameterError, match="bandwidth"):
            service.tile("d", 1, 0, 0, bandwidth=-1.0)
        with pytest.raises(ServeError):
            service.tile("d", 1, 5, 0, bandwidth=0.8)

    def test_unknown_dataset_is_serve_error(self):
        service = make_service()
        with pytest.raises(ServeError, match="unknown dataset"):
            service.tile("ghost", 1, 0, 0, bandwidth=0.8)

    def test_tiles_stitch_to_full_surface(self):
        """The tiled lattice is a partition of the maintained surface."""
        service = make_service()
        dataset = service.store.get("d")
        surface = service._surface(dataset, 1, 0.8, "quartic", None)
        surface.sync(dataset)
        grid = surface.snapshot()
        stitched = np.empty_like(grid.values)
        px = 32
        for ty in range(2):
            for tx in range(2):
                tile = service.tile("d", 1, tx, ty, bandwidth=0.8)
                # surface arrays are x-major: axis 0 is x, axis 1 is y
                stitched[tx * px:(tx + 1) * px, ty * px:(ty + 1) * px] = \
                    tile.values
        np.testing.assert_allclose(stitched, np.maximum(grid.values, 0.0),
                                   atol=1e-12)

    def test_concurrent_identical_tiles_execute_once(self):
        """Satellite (d): N threads, same tile, exactly one execution."""
        # Admission must not cap concurrency below the thread count, or
        # late arrivals queue outside the coalescer and land on the cache.
        service = make_service(max_inflight=16)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        gate = threading.Event()
        entered = threading.Event()
        real_compute = service._compute_tile
        calls = []

        def slow_compute(*args, **kwargs):
            calls.append(1)
            entered.set()
            gate.wait(timeout=10.0)
            return real_compute(*args, **kwargs)

        service._compute_tile = slow_compute
        results = []
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                results.append(service.tile("d", 1, 1, 1, bandwidth=0.8))
            except BaseException as exc:  # surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        assert entered.wait(timeout=10.0)
        # Release the leader only after every other thread is a follower.
        for _ in range(2000):
            if service.coalescer.coalesced == n_threads - 1:
                break
            threading.Event().wait(0.005)
        gate.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert len(calls) == 1, "exactly one tile execution for six requests"
        assert len(results) == n_threads
        first = results[0]
        for r in results[1:]:
            assert r is first  # every follower got the leader's object
        snap = service.stats_snapshot()
        assert snap["counters"]["coalesce.waited"] == n_threads - 1
        assert snap["counters"]["tile.computed"] == 1

    def test_ingest_invalidates_only_dirty_tiles(self):
        """Satellite (d): invalidation-after-ingest, far tiles stay cached."""
        service = make_service()
        # Warm all 4 tiles at zoom 1 (tile_px=32, 2x2 lattice over 8x8 bbox).
        warm = {
            (tx, ty): service.tile("d", 1, tx, ty, bandwidth=0.4)
            for tx in range(2) for ty in range(2)
        }
        # Ingest a tight cluster well inside tile (0, 0): x,y in [1, 2].
        cluster = np.array([[1.5, 1.5], [1.6, 1.4], [1.4, 1.6]])
        report = service.ingest("d", cluster)
        assert report["added"] == 3
        assert report["invalidated_tiles"] >= 1
        # Far corner tile survived in cache (same object), dirty tile did not.
        hit_before = service.stats_snapshot()["counters"].get(
            "tile.cache_hit", 0)
        far = service.tile("d", 1, 1, 1, bandwidth=0.4)
        assert far is warm[(1, 1)]
        hit_after = service.stats_snapshot()["counters"]["tile.cache_hit"]
        assert hit_after == hit_before + 1
        near = service.tile("d", 1, 0, 0, bandwidth=0.4)
        assert near is not warm[(0, 0)]
        assert near.values.sum() > warm[(0, 0)].values.sum()
        assert near.version == 1

    def test_invalidated_surface_matches_fresh_service(self):
        """Post-ingest incremental tiles equal a cold service on final data."""
        service = make_service()
        for tx in range(2):
            for ty in range(2):
                service.tile("d", 1, tx, ty, bandwidth=0.6)
        extra = BBOX.sample_uniform(60, np.random.default_rng(9))
        service.ingest("d", extra)
        final = np.vstack([POINTS, extra])
        fresh = ServeConfig(tile_px=32, max_zoom=3)
        cold = AnalyticsService(config=fresh)
        cold.create_dataset("d", final, bbox=BBOX)
        for tx in range(2):
            for ty in range(2):
                inc = service.tile("d", 1, tx, ty, bandwidth=0.6)
                ref = cold.tile("d", 1, tx, ty, bandwidth=0.6)
                np.testing.assert_allclose(inc.values, ref.values, atol=1e-9)

    def test_dtype_spellings_share_one_surface(self):
        service = make_service()
        tiles = {
            dtype: service.tile("d", 1, 0, 0, bandwidth=0.8, dtype=dtype)
            for dtype in (None, "float64", "float32", "f4", "<f4")
        }
        assert service.stats_snapshot()["surfaces"] == 2
        assert tiles["float64"] is tiles[None]
        assert tiles["f4"] is tiles["float32"] is tiles["<f4"]
        assert tiles["float32"].values.dtype == np.float32

    @pytest.mark.parametrize("dtype", ["foo", "int32", "float16", ","])
    def test_unknown_dtype_rejected(self, dtype):
        with pytest.raises(ParameterError, match="dtype"):
            make_service().tile("d", 1, 0, 0, bandwidth=0.8, dtype=dtype)

    def test_fmt_and_encode_go_together(self):
        service = make_service()
        with pytest.raises(ParameterError, match="fmt/encode"):
            service.tile("d", 1, 0, 0, bandwidth=0.8, fmt="json")
        with pytest.raises(ParameterError, match="fmt/encode"):
            service.tile("d", 1, 0, 0, bandwidth=0.8, encode=bytes)

    def test_bodies_share_the_tile_entry(self):
        """Each format is encoded once; the entry holds only what was asked."""
        service = make_service()
        encoded = []

        def encoder(name):
            def encode(result):
                encoded.append(name)
                return f"{name}:{result.values.sum()!r}".encode()
            return encode

        for _ in range(2):
            for name in ("a", "b"):
                body = service.tile("d", 1, 0, 0, bandwidth=0.8, fmt=name,
                                    encode=encoder(name))
                assert body.startswith(name.encode())
        assert encoded == ["a", "b"]
        key = ("tile", service.store.get("d").identity, 1, 0, 0, 0.8,
               "quartic", "float64")
        assert len(service.tile_cache) == 1
        entry = service.tile_cache.peek(key)
        assert set(entry) == {"a", "b"}   # no TileResult kept beside them
        stats = service.stats_snapshot()["tile_cache"]
        assert stats["bytes"] == sum(len(body) for body in entry.values())

    def test_ingest_evicts_every_format_of_dirty_tiles_only(self):
        service = make_service()
        formats = ("json", ("ppm", "heat"), ("ppm", "gray"))

        def fetch(tx, ty):
            return {
                fmt: service.tile("d", 1, tx, ty, bandwidth=0.4, fmt=fmt,
                                  encode=lambda r: r.values.tobytes())
                for fmt in formats
            }

        tiles = [(tx, ty) for tx in range(2) for ty in range(2)]
        before = {t: fetch(*t) for t in tiles}
        service.ingest("d", np.array([[1.5, 1.5], [1.6, 1.4], [1.4, 1.6]]))
        computed = service.stats.counter("tile.computed")
        after = {t: fetch(*t) for t in tiles}
        recomputed = service.stats.counter("tile.computed") - computed
        dirty = {t for t in tiles if after[t] != before[t]}
        assert (0, 0) in dirty and (1, 1) not in dirty
        # A dirty tile recomputes every format; a clean one serves each
        # from cache, the very bytes it served before.
        assert recomputed == len(dirty) * len(formats)
        for t in set(tiles) - dirty:
            for fmt in formats:
                assert after[t][fmt] is before[t][fmt]

    def test_reads_racing_ingests_cache_no_stale_body(self):
        """Readers of three formats race an ingesting thread; afterwards
        every cached body encodes its tile's current pixels, and the
        cache's byte count is the sum of its bodies."""
        service = make_service(max_inflight=16)
        formats = ("a", "b", "c")
        tiles = [(tx, ty) for tx in range(2) for ty in range(2)]
        rng = np.random.default_rng(3)
        batches = [BBOX.sample_uniform(3, rng) for _ in range(30)]
        errors = []

        def encode(result):
            return result.values.tobytes()

        def reader(seed):
            pick = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    tx, ty = tiles[pick.integers(len(tiles))]
                    fmt = formats[pick.integers(len(formats))]
                    service.tile("d", 1, tx, ty, bandwidth=0.8, fmt=fmt,
                                 encode=encode)
            except BaseException as exc:
                errors.append(exc)

        def ingester():
            try:
                for batch in batches:
                    service.ingest("d", batch)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(4)]
        threads.append(threading.Thread(target=ingester))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        dataset = service.store.get("d")
        surface = service._surface(dataset, 1, 0.8, "quartic", "float64")
        surface.sync(dataset)
        held = 0
        for tx, ty in tiles:
            key = ("tile", dataset.identity, 1, tx, ty, 0.8, "quartic",
                   "float64")
            entry = service.tile_cache.peek(key, {})
            for body in entry.values():
                assert body == surface.tile_values(tx, ty).tobytes()
                held += len(body)
        assert service.stats_snapshot()["tile_cache"]["bytes"] == held

    def test_ingest_during_a_miss_is_not_cached_over(self):
        """An ingest that lands between slicing a tile and caching it has
        already evicted the key; the stale body must not be cached."""
        service = make_service()
        real_compute = service._compute_tile

        def compute_then_ingest(*args):
            result = real_compute(*args)
            service.ingest("d", np.array([[1.5, 1.5], [1.6, 1.4]]))
            return result

        service._compute_tile = compute_then_ingest
        stale = service.tile("d", 1, 0, 0, bandwidth=0.4, fmt="raw",
                             encode=lambda r: r.values.tobytes())
        service._compute_tile = real_compute
        fresh = service.tile("d", 1, 0, 0, bandwidth=0.4, fmt="raw",
                             encode=lambda r: r.values.tobytes())
        assert fresh != stale
        assert service.stats.counter("tile.computed") == 2

    def test_cached_bytes_stay_within_budget(self):
        budget = 3 * 32 * 32 * 8 + 100   # three float64 tile bodies and change
        service = make_service(tile_cache_bytes=budget)
        for tx in range(4):
            for ty in range(4):
                service.tile("d", 2, tx, ty, bandwidth=0.8, fmt="raw",
                             encode=lambda r: r.values.tobytes())
                stats = service.stats_snapshot()["tile_cache"]
                assert stats["bytes"] <= stats["capacity_bytes"] == budget
        assert stats["size"] == 3 and stats["evictions"] == 13


class TestServiceQuery:
    def test_query_kdv_and_result_cache(self):
        service = make_service()
        request = {"kind": "kdv", "dataset": "d", "bandwidth": 0.8,
                   "size": [32, 32], "method": "grid"}
        first = service.query(request)
        second = service.query(request)
        assert first["kind"] == "kdv"
        assert first["surface_sha256"] == second["surface_sha256"]
        assert "plan" in first and first["plan"]["method"] == "grid"
        assert first["trace"]["seconds"] >= 0.0
        snap = service.stats_snapshot()
        assert snap["result_cache"]["hits"] == 1

    def test_ingest_retires_query_results(self):
        service = make_service()
        request = {"kind": "kdv", "dataset": "d", "bandwidth": 0.8,
                   "size": [32, 32], "method": "grid"}
        before = service.query(request)
        service.ingest("d", np.array([[4.0, 4.0]] * 5))
        after = service.query(request)
        assert after["surface_sha256"] != before["surface_sha256"]
        assert after["version"] == 1

    def test_query_hotspot_and_kfunction(self):
        service = make_service()
        hot = service.query({"kind": "hotspot", "dataset": "d",
                             "size": [32, 32], "n_simulations": 9, "seed": 1})
        assert hot["kind"] == "hotspot"
        assert "hotspots" in hot
        kf = service.query({"kind": "kfunction", "dataset": "d",
                            "n_thresholds": 4, "n_simulations": 5, "seed": 1})
        assert kf["kind"] == "kfunction"
        assert len(kf["rows"]) == 4
        assert {"threshold", "observed", "lower", "upper", "regime"} <= \
            set(kf["rows"][0])

    def test_query_requires_dataset(self):
        service = make_service()
        with pytest.raises(ParameterError, match="dataset"):
            service.query({"kind": "kdv", "bandwidth": 0.5})


# ---------------------------------------------------------------------------
# HTTP front-end (ephemeral port, real sockets)
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_server():
    service = make_service()
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _post(base, path, payload):
    req = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


def _request(base, method, path, body=b"", headers=()):
    """One raw request over http.client: (status, headers, body bytes)."""
    url = urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10.0)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        if not any(name.lower() == "content-length" for name, _ in headers):
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    finally:
        conn.close()


_POINTS_BODY = {"points": [[1.0, 1.0], [2.0, 2.0]]}


class TestHTTPFrontend:
    def test_healthz_and_stats(self, http_server):
        base, _ = http_server
        status, ctype, body = _get(base, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"] is True
        status, _, body = _get(base, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert "counters" in stats and "tile_cache" in stats

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_served_bodies_equal_fresh_encodings(self, http_server, dtype):
        """Miss and hit alike, every body is the bytes a fresh service's
        TileResult encodes to."""
        base, service = http_server
        fresh = make_service()
        for tx, ty in [(0, 0), (1, 1)]:
            ref = fresh.tile("d", 1, tx, ty, bandwidth=0.8, dtype=dtype)
            grid = repro.DensityGrid(repro.BoundingBox(*ref.bbox), ref.values)
            expected = {
                "json": json.dumps(ref.to_payload()).encode(),
                "ppm?colormap=heat": _ppm_bytes(grid, "heat"),
                "ppm?colormap=viridis": _ppm_bytes(grid, "viridis"),
            }
            for _ in ("miss", "hit"):
                for suffix, body in expected.items():
                    sep = "&" if "?" in suffix else "?"
                    path = (f"/v1/tile/d/1/{tx}/{ty}.{suffix}{sep}"
                            f"bandwidth=0.8&dtype={dtype}")
                    assert _get(base, path)[2] == body, path
        counters = service.stats_snapshot()["counters"]
        assert counters["tile.cache_miss"] == counters["tile.cache_hit"] == 6

    def test_tile_json_and_ppm(self, http_server):
        base, _ = http_server
        status, ctype, body = _get(
            base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert len(payload["values"]) == 32
        status, ctype, body = _get(
            base, "/v1/tile/d/1/0/0.ppm?bandwidth=0.8")
        assert status == 200 and ctype == "image/x-portable-pixmap"
        assert body.startswith(b"P6\n32 32\n255\n")
        assert len(body) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_query_roundtrip(self, http_server):
        base, _ = http_server
        status, payload = _post(base, "/v1/query", {
            "kind": "kdv", "dataset": "d", "bandwidth": 0.8,
            "size": [32, 32], "method": "grid",
        })
        assert status == 200
        assert payload["kind"] == "kdv" and "surface_sha256" in payload

    def test_create_and_ingest_dataset(self, http_server):
        base, service = http_server
        status, payload = _post(base, "/v1/datasets/fresh", {
            "points": [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
            "bbox": [0.0, 0.0, 4.0, 4.0],
        })
        assert status == 201
        assert payload["n"] == 3
        status, payload = _post(base, "/v1/ingest/fresh", {
            "points": [[2.5, 2.5]],
        })
        assert status == 200
        assert payload["added"] == 1 and payload["version"] == 1
        assert "fresh" in {row["name"] for row in service.datasets()}

    def test_unknown_dataset_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/tile/ghost/1/0/0.json?bandwidth=0.8")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]

    def test_missing_bandwidth_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/tile/d/1/0/0.json")
        assert excinfo.value.code == 400

    def test_unknown_kdv_method_400(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, "/v1/query", {
                "kind": "kdv", "dataset": "d", "bandwidth": 0.8,
                "method": "bogus",
            })
        assert excinfo.value.code == 400
        assert "unknown KDV method" in json.loads(excinfo.value.read())["error"]

    def test_unknown_route_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/v1/teleport")
        assert excinfo.value.code == 404

    def test_stats_reflect_traffic(self, http_server):
        base, service = http_server
        _get(base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        _get(base, "/v1/tile/d/1/0/0.json?bandwidth=0.8")
        snap = service.stats_snapshot()
        assert snap["counters"]["requests.total"] >= 2
        assert snap["tile_cache_hit_rate"] > 0.0
        assert "p50" in snap["latency_ms"]["tile"]

    @pytest.mark.parametrize("method,path,body,headers,field", [
        ("POST", "/v1/datasets/x", b"[1]", (), "JSON object"),
        ("POST", "/v1/ingest/d", b"[1]", (), "JSON object"),
        ("POST", "/v1/ingest/d", b"5", (), "JSON object"),
        ("POST", "/v1/datasets/x", {**_POINTS_BODY, "margin": "x"}, (),
         "margin"),
        ("POST", "/v1/datasets/x", {**_POINTS_BODY, "bbox": [0, 0, 4]}, (),
         "bbox"),
        ("POST", "/v1/datasets/x", {**_POINTS_BODY, "bbox": 4}, (), "bbox"),
        ("POST", "/v1/datasets/x", {"points": "abc"}, (), "points"),
        ("POST", "/v1/ingest/d", {"points": [[1.0, 1.0]], "times": ["t"]},
         (), "times"),
        ("POST", "/v1/ingest/d", b"{}", (("Content-Length", "abc"),),
         "Content-Length"),
        ("GET", "/v1/tile/d/1/0/0.json?bandwidth=0.8&dtype=foo", b"", (),
         "dtype"),
        ("POST", "/v1/query",
         {"kind": "kfunction", "dataset": "d", "n_simulations": "abc"}, (),
         "n_simulations"),
        ("POST", "/v1/query",
         {"kind": "kfunction", "dataset": "d", "method": "kdtree"}, (),
         "K-function method"),
    ], ids=["create-list", "ingest-list", "ingest-number", "margin",
            "bbox-3", "bbox-number", "points", "times", "content-length",
            "dtype", "query-number", "query-k-method"])
    def test_malformed_input_400(self, http_server, method, path, body,
                                 headers, field):
        base, service = http_server
        if isinstance(body, dict):
            body = json.dumps(body).encode()
        status, response_headers, raw = _request(base, method, path, body,
                                                 headers)
        assert status == 400
        if field == "Content-Length":  # the unread body ends the connection
            assert response_headers["Connection"] == "close"
        payload = json.loads(raw)
        assert field in payload["error"]
        assert payload["type"] in ("ParameterError", "DataError")
        assert "x" not in service.store.names()

    @pytest.mark.parametrize("path,status,kind", [
        ("/v1/tile/ghost/1/0/0.json?bandwidth=0.8", 404, "ServeError"),
        ("/v1/tile/d/1/0/0.json", 400, "ParameterError"),
        ("/v1/datasets", 500, "ZeroDivisionError"),
    ])
    def test_error_body_shape(self, http_server, monkeypatch, path, status,
                              kind):
        base, service = http_server
        monkeypatch.setattr(service, "datasets", lambda: 1 / 0)
        got, headers, raw = _request(base, "GET", path)
        assert got == status
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(raw)
        assert set(payload) == {"error", "type"}
        assert payload["type"] == kind
        assert service.stats_snapshot()["counters"][f"http.{status}"] == 1

    def test_protocol_error_is_json_and_closes(self, http_server):
        base, service = http_server
        status, headers, raw = _request(base, "PUT", "/healthz")
        assert status == 501
        assert headers["Connection"] == "close"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(raw) == {"error": "Unsupported method ('PUT')",
                                   "type": "HTTPError"}
        assert service.stats_snapshot()["counters"]["http.501"] == 1


# ---------------------------------------------------------------------------
# Transport: one socket write per response
# ---------------------------------------------------------------------------


class _CountingSocket:
    """A connected-socket stand-in: canned request bytes in, sends counted."""

    def __init__(self, request: bytes):
        self._request = request
        self.sends: list[bytes] = []

    def makefile(self, mode, buffering=None):
        return io.BytesIO(self._request)

    def sendall(self, data) -> None:
        self.sends.append(bytes(data))


def _serve_one(service, request: bytes) -> list[bytes]:
    """Drive one handler over a counting socket; the bytes of each send."""
    handler = type("H", (ReproRequestHandler,), {"service": service})
    sock = _CountingSocket(request)
    handler(sock, ("127.0.0.1", 0), None)
    return sock.sends


def _raw_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode("ascii") + b"\r\n" + body


def _parse_response(data: bytes) -> http.client.HTTPResponse:
    response = http.client.HTTPResponse(_CountingSocket(data))
    response.begin()
    return response


class TestSingleWrite:
    """Each response leaves in one send.

    A body written after its headers is a second small segment, which
    Nagle's algorithm holds until the client's delayed ACK: ≈40 ms added
    to every small response.
    """

    @pytest.mark.parametrize("request_bytes,status,content_type", [
        (_raw_request("GET", "/v1/tile/d/1/0/0.json?bandwidth=0.8"), 200,
         "application/json"),
        (_raw_request("GET", "/v1/tile/d/1/0/0.ppm?bandwidth=0.8"), 200,
         "image/x-portable-pixmap"),
        (_raw_request("POST", "/v1/datasets/fresh",
                      json.dumps(_POINTS_BODY).encode()), 201,
         "application/json"),
        (_raw_request("GET", "/v1/teleport"), 404, "application/json"),
        (_raw_request("GET", "/v1/tile/d/1/0/0.json"), 400,
         "application/json"),
        (_raw_request("GET", "/v1/datasets"), 500, "application/json"),
        (_raw_request("PUT", "/v1/query", b"{}"), 501, "application/json"),
        (b"GARBAGE\r\n\r\n", 400, "application/json"),
    ], ids=["200-json", "200-ppm", "201", "404", "400", "500", "501",
            "bad-request-line"])
    def test_one_send_per_response(self, monkeypatch, request_bytes, status,
                                   content_type):
        service = make_service()
        monkeypatch.setattr(service, "datasets", lambda: 1 / 0)
        sends = _serve_one(service, request_bytes)
        assert len(sends) == 1
        response = _parse_response(sends[0])
        assert response.version == 11
        assert response.status == status
        assert response.getheader("Content-Type") == content_type
        body = response.read()
        assert len(body) == int(response.getheader("Content-Length")) > 0
        assert sends[0].endswith(body)
        if content_type == "application/json":
            assert ("error" in json.loads(body)) == (status >= 400)
