"""Ablation C: parallel speedup (§2.2/§2.3 "parallel and hardware" family).

The GPU/FPGA papers the tutorial surveys all make the same claim —
throwing parallel lanes at the naive kernel sum gives near-linear
speedup.  The CPU-thread backend reproduces the claim's shape: time drops
as workers increase (NumPy releases the GIL inside the vectorised
kernel evaluation of each row band of ``method="naive"``).  The Gaussian
rows time the separable gather, which is what ``auto`` runs for exact
Gaussian KDV: its workers take whole y-bands (two on this grid) and each
builds the whole x-table.
"""

from __future__ import annotations

import os

import pytest

from repro.core.kdv import kde_grid

from _util import record

SIZE = (160, 120)
BANDWIDTH = 1.5
ROWS: list[list] = []
GAUSSIAN_ROWS: list[list] = []

WORKER_COUNTS = [1, 2, 4]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_workers(benchmark, workers, crime_large):
    grid = benchmark.pedantic(
        kde_grid,
        args=(crime_large.points, crime_large.bbox, SIZE, BANDWIDTH),
        kwargs=dict(kernel="quartic", method="naive", workers=workers),
        rounds=2,
        iterations=1,
    )
    assert grid.max > 0
    ROWS.append([workers, benchmark.stats.stats.mean])


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_workers_gaussian(benchmark, workers, crime_large):
    grid = benchmark.pedantic(
        kde_grid,
        args=(crime_large.points, crime_large.bbox, SIZE, BANDWIDTH),
        kwargs=dict(kernel="gaussian", method="naive", workers=workers),
        rounds=5,
        iterations=1,
    )
    assert grid.max > 0
    GAUSSIAN_ROWS.append([workers, benchmark.stats.stats.mean])


def test_zz_report(benchmark):
    def report():
        by_workers = dict(ROWS)
        base = by_workers[1]
        cores = os.cpu_count() or 1
        rows = [
            ["quartic", w, f"{t * 1e3:.0f} ms", f"{base / t:.2f}x"]
            for w, t in sorted(ROWS)
        ]
        gauss = dict(GAUSSIAN_ROWS)
        rows += [
            ["gaussian", w, f"{t * 1e3:.1f} ms", f"{gauss[1] / t:.2f}x"]
            for w, t in sorted(GAUSSIAN_ROWS)
        ]
        # Shape check: more workers should not be slower than 1 worker by
        # much, and with >= 2 physical cores we expect real speedup.
        if cores >= 2:
            assert by_workers[2] < base * 1.1
        return record(
            "ablation_parallel",
            rows,
            headers=["kernel", "workers", "mean time", "speedup"],
            title=(
                f"Ablation C: thread-parallel exact KDV, n=20000, "
                f"{SIZE[0]}x{SIZE[1]} ({cores} cores available)"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text
