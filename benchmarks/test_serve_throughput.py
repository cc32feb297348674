"""Serving layer acceptance: cache speedup, coalescing, dirty-only eviction.

The PR 10 acceptance bars, measured end to end through
:class:`repro.serve.AnalyticsService`:

* **Warm vs cold**: a warm-cache tile hit must be at least **10x** faster
  than the cold compute a fresh server pays for the same tile (the cold
  path renders the tile, scattering the dataset points whose kernel
  reaches it; the warm path is an LRU lookup).
* **Coalescing**: >= 4 identical concurrent tile requests arriving while
  the leader computes must collapse into exactly **1** execution.
* **Dirty-only invalidation**: a localized streamed ingest must evict
  exactly the tiles whose pixels changed — verified against a
  full-surface diff between the pre- and post-ingest ground truth, not
  against the ledger's own bookkeeping.

An ungated row times a cold tile at the deepest zoom, ``MAX_ZOOM``: a
cold tile renders one tile, so it costs about as much at any zoom.

Machine-readable results: ``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.data import chicago_crime
from repro.serve import AnalyticsService, ServeConfig

from _util import RESULTS_DIR, record

N_EVENTS = 4000
ZOOM = 2           # 4x4 tile lattice
MAX_ZOOM = 3       # the deepest level the fresh servers allow
TILE_PX = 64
COALESCE_THREADS = 8
CRIME = chicago_crime(N_EVENTS, seed=23)
BANDWIDTH = 0.05 * CRIME.bbox.diagonal
ROWS: list[list] = []
REPORT: dict = {}


def _fresh_service(**overrides) -> AnalyticsService:
    config = ServeConfig(tile_px=TILE_PX, max_zoom=MAX_ZOOM, **overrides)
    service = AnalyticsService(config=config)
    service.create_dataset("crime", CRIME.points, bbox=CRIME.bbox)
    return service


def test_cold_tile(benchmark):
    """Fresh server, first request for a tile: sync + scatter + slice."""

    def setup():
        return (_fresh_service(),), {}

    def cold(service):
        return service.tile("crime", ZOOM, 1, 1, bandwidth=BANDWIDTH)

    result = benchmark.pedantic(cold, setup=setup, rounds=5, iterations=1)
    assert result.values.shape == (TILE_PX, TILE_PX)
    assert result.values.sum() > 0
    ROWS.append(["cold tile (fresh server)", benchmark.stats.stats.mean])


def test_cold_tile_max_zoom(benchmark):
    """Fresh server, first tile at the deepest zoom (ungated)."""
    side = 2 ** MAX_ZOOM

    def setup():
        return (_fresh_service(),), {}

    def cold(service):
        return service.tile("crime", MAX_ZOOM, side // 2, side // 2,
                            bandwidth=BANDWIDTH)

    result = benchmark.pedantic(cold, setup=setup, rounds=5, iterations=1)
    assert result.values.shape == (TILE_PX, TILE_PX)
    ROWS.append([f"cold tile at max_zoom {MAX_ZOOM} (fresh server)",
                 benchmark.stats.stats.mean])


def test_warm_tile(benchmark):
    """Same request again: pure LRU hit, bit-identical payload."""
    service = _fresh_service()
    cold = service.tile("crime", ZOOM, 1, 1, bandwidth=BANDWIDTH)

    def warm():
        return service.tile("crime", ZOOM, 1, 1, bandwidth=BANDWIDTH)

    result = benchmark.pedantic(warm, rounds=20, iterations=10)
    assert result is cold  # the cached object itself
    snap = service.stats_snapshot()
    assert snap["counters"]["tile.cache_hit"] >= 200
    ROWS.append(["warm tile (cache hit)", benchmark.stats.stats.mean])


def test_coalescing(benchmark):
    """>= 4 identical concurrent requests collapse into one execution."""

    def run():
        _coalescing_scenario()
        return True

    assert benchmark.pedantic(run, rounds=1, iterations=1)


def _coalescing_scenario():
    service = _fresh_service(max_inflight=2 * COALESCE_THREADS)
    gate = threading.Event()
    entered = threading.Event()
    real_compute = service._compute_tile
    executions = []

    def gated_compute(*args, **kwargs):
        executions.append(1)
        entered.set()
        gate.wait(timeout=30.0)
        return real_compute(*args, **kwargs)

    service._compute_tile = gated_compute
    results, errors = [], []

    def worker():
        try:
            results.append(service.tile("crime", ZOOM, 2, 2,
                                        bandwidth=BANDWIDTH))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker)
               for _ in range(COALESCE_THREADS)]
    for t in threads:
        t.start()
    assert entered.wait(timeout=30.0)
    # Hold the leader until every other thread has joined the flight.
    pause = threading.Event()
    for _ in range(6000):
        if service.coalescer.coalesced >= COALESCE_THREADS - 1:
            break
        pause.wait(0.005)
    gate.set()
    for t in threads:
        t.join(timeout=30.0)
    assert not errors
    coalesced = service.stats_snapshot()["counters"]["coalesce.waited"]
    assert len(executions) == 1, (
        f"{COALESCE_THREADS} identical requests ran {len(executions)} times"
    )
    assert coalesced >= 4, (
        f"expected >= 4 coalesced followers, got {coalesced}"
    )
    assert len({id(r) for r in results}) == 1  # one shared result object
    REPORT["coalescing"] = {
        "concurrent_requests": COALESCE_THREADS,
        "executions": len(executions),
        "coalesced_followers": int(coalesced),
    }
    ROWS.append([
        f"coalesce ({COALESCE_THREADS} concurrent -> "
        f"{len(executions)} execution)", None,
    ])


def test_ingest_invalidates_only_dirty_tiles(benchmark):
    """Eviction set == ground-truth changed-tile set from a surface diff."""

    def run():
        _invalidation_scenario()
        return True

    assert benchmark.pedantic(run, rounds=1, iterations=1)


def _invalidation_scenario():
    service = _fresh_service()
    lattice = 2 ** ZOOM
    warm = {
        (tx, ty): service.tile("crime", ZOOM, tx, ty, bandwidth=BANDWIDTH)
        for tx in range(lattice) for ty in range(lattice)
    }
    before = {key: tile.values.copy() for key, tile in warm.items()}

    # A tight cluster near one corner of the study window.
    bbox = CRIME.bbox
    cx = bbox.xmin + 0.12 * bbox.width
    cy = bbox.ymin + 0.12 * bbox.height
    rng = np.random.default_rng(5)
    scale = 0.01 * bbox.diagonal
    cluster = np.column_stack([
        np.clip(rng.normal(cx, scale, 25), bbox.xmin, bbox.xmax),
        np.clip(rng.normal(cy, scale, 25), bbox.ymin, bbox.ymax),
    ])
    report = service.ingest("crime", cluster)

    # Ground truth: a cold server over the final contents, full surface.
    cold = AnalyticsService(config=ServeConfig(tile_px=TILE_PX,
                                               max_zoom=MAX_ZOOM))
    cold.create_dataset("crime", np.vstack([CRIME.points, cluster]),
                        bbox=bbox)
    changed = set()
    for (tx, ty), old in before.items():
        ref = cold.tile("crime", ZOOM, tx, ty, bandwidth=BANDWIDTH)
        if not np.allclose(ref.values, old, rtol=0.0, atol=1e-9):
            changed.add((tx, ty))
    assert changed, "the ingest must actually move some pixels"
    assert len(changed) < lattice * lattice, (
        "a localized ingest must not touch the whole lattice"
    )

    # The service must have evicted every changed tile and kept the rest.
    evicted = set()
    for key, tile in warm.items():
        tx, ty = key
        again = service.tile("crime", ZOOM, tx, ty, bandwidth=BANDWIDTH)
        if again is not tile:
            evicted.add(key)
        np.testing.assert_allclose(
            again.values,
            cold.tile("crime", ZOOM, tx, ty, bandwidth=BANDWIDTH).values,
            rtol=0.0, atol=1e-9,
        )
    assert evicted == changed, (
        f"evicted {sorted(evicted)} but the surface diff says "
        f"{sorted(changed)} changed"
    )
    assert report["invalidated_tiles"] == len(changed)
    REPORT["invalidation"] = {
        "lattice": [lattice, lattice],
        "ingested_events": int(cluster.shape[0]),
        "tiles_total": lattice * lattice,
        "tiles_changed": len(changed),
        "tiles_evicted": len(evicted),
        "tiles_kept_warm": lattice * lattice - len(evicted),
    }
    ROWS.append([
        f"dirty-only eviction ({len(evicted)}/{lattice * lattice} tiles)",
        None,
    ])


def test_zz_report(benchmark):
    def report():
        by_key = dict((k, t) for k, t in ROWS if t is not None)
        cold_t = by_key["cold tile (fresh server)"]
        deep_t = by_key[f"cold tile at max_zoom {MAX_ZOOM} (fresh server)"]
        warm_t = by_key["warm tile (cache hit)"]
        speedup = cold_t / warm_t
        payload = {
            "experiment": "serve",
            "workload": f"chicago_crime(n={N_EVENTS}, seed=23)",
            "tile_px": TILE_PX,
            "zoom": ZOOM,
            "bandwidth": BANDWIDTH,
            "results": [
                {"case": "cold_tile", "mean_seconds": cold_t},
                {"case": "cold_tile_max_zoom", "zoom": MAX_ZOOM,
                 "mean_seconds": deep_t},
                {"case": "warm_tile", "mean_seconds": warm_t},
            ],
            "warm_vs_cold_speedup": speedup,
            **REPORT,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_serve.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        # The acceptance bar: warm hits >= 10x faster than cold computes.
        assert speedup >= 10.0, (
            f"expected warm-cache tiles >= 10x faster than cold, "
            f"got {speedup:.1f}x"
        )
        rows = [
            [key, "-" if t is None else f"{t * 1e3:.3f} ms"]
            for key, t in ROWS
        ]
        rows.append(["warm vs cold speedup", f"{speedup:.0f}x"])
        return record(
            "serve_throughput",
            rows,
            headers=["case", "mean latency"],
            title=(
                f"Analytics service: {TILE_PX}px tiles at zoom {ZOOM} "
                f"({N_EVENTS} events)"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "--benchmark-only", "-q"])
