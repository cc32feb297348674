"""Crime analytics: KDV method shoot-out + correlation statistics.

The tutorial's running example is large-scale crime data (the Chicago
dataset).  This example works on the Chicago stand-in and demonstrates

1. the four KDV acceleration families against the naive baseline, with
   wall times and exactness checks (the §2.2 survey, live),
2. Moran's I and Getis-Ord General G on a grid aggregation of the events
   (the §2.1 correlation-analysis tools),
3. DBSCAN clustering as the classical alternative the intro mentions.

Usage::

    python examples/crime_analysis.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.core.kdv import kde_grid


def kdv_shootout(data) -> None:
    print("== KDV acceleration families (quartic kernel, 128x96) ==")
    size = (128, 96)
    bandwidth = 1.5
    reference = None
    for method, kwargs in [
        ("naive", {}),
        ("grid", {}),
        ("sweep", {}),
        ("naive", {"workers": 4}),
        ("bounds", {"eps": 0.1, "kernel": "gaussian", "size": (32, 24)}),
        ("sampling", {"eps": 0.05, "seed": 3}),
    ]:
        kernel = kwargs.pop("kernel", "quartic")
        grid_size = kwargs.pop("size", size)
        label = f"{method}/{kwargs['workers']}w" if "workers" in kwargs else method
        start = time.perf_counter()
        grid = kde_grid(
            data.points, data.bbox, grid_size, bandwidth,
            kernel=kernel, method=method, **kwargs,
        )
        elapsed = time.perf_counter() - start
        note = ""
        if reference is None:
            reference = grid
        elif kernel == "quartic" and grid_size == size and reference is not None:
            err = grid.max_abs_difference(reference) / max(reference.max, 1e-12)
            note = f"max dev vs naive: {err:.2e} of peak"
        elif grid_size != size:
            note = f"(on {grid_size[0]}x{grid_size[1]}; per-pixel Python refinement)"
        print(f"  {label:9s} ({kernel:9s}): {elapsed * 1e3:8.1f} ms  {note}")
    print()


def correlation_statistics(data) -> None:
    print("== correlation analysis on the density raster ==")
    grid = repro.kde_grid(data.points, data.bbox, (24, 32), 1.5)
    weights = repro.lattice_weights(grid.nx, grid.ny, "queen")
    values = grid.values.ravel()

    moran = repro.morans_i(values, weights, permutations=99, seed=4)
    print(f"  Moran's I = {moran.statistic:.3f} "
          f"(expected {moran.expected:.4f}, z = {moran.z_score:.1f}, "
          f"permutation p = {moran.p_permutation})")

    g = repro.general_g(values, repro.distance_band_weights(
        np.column_stack(np.meshgrid(
            np.arange(grid.nx), np.arange(grid.ny), indexing="ij"
        )).reshape(-1, 2).astype(float),
        1.5,
    ))
    print(f"  General G z-score = {g.z_score:.1f} "
          f"(high-value clustering: {g.high_clustering})")
    print()


def clustering(data) -> None:
    print("== DBSCAN on the raw events ==")
    labels = repro.dbscan(data.points, eps=0.4, min_pts=10)
    n_clusters = int(labels.max()) + 1
    noise = int((labels == -1).sum())
    sizes = np.bincount(labels[labels >= 0]) if n_clusters else []
    print(f"  clusters: {n_clusters}, noise points: {noise}")
    if n_clusters:
        top = np.sort(sizes)[::-1][:5]
        print(f"  largest cluster sizes: {top.tolist()}")


def main() -> None:
    data = repro.data.chicago_crime(6000, seed=2)
    print(f"dataset: {data.name}, n={data.n}\n")
    kdv_shootout(data)
    correlation_statistics(data)
    clustering(data)


if __name__ == "__main__":
    main()
