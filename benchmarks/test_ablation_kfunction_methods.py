"""Ablation B: range-query-based K-function vs the O(n^2) baseline (§2.3).

The paper: "existing solutions ... are still in O(n^2) time, which are not
scalable".  The range-query backend (grid) restricts each point's scan to
its s_max-neighbourhood, so on clustered data with a local threshold it
scales near-linearly.  The ablation sweeps n and records the crossover and
speedups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kfunction import k_function
from repro.data import chicago_crime

from _util import record

THRESHOLDS = np.linspace(0.25, 2.0, 8)
ROWS: list[list] = []


@pytest.mark.parametrize("n", [1000, 4000])
def test_kfunction_naive(benchmark, n):
    ds = chicago_crime(n, seed=72)
    counts = benchmark.pedantic(
        k_function, args=(ds.points, THRESHOLDS),
        kwargs=dict(method="naive"),
        rounds=1, iterations=1,
    )
    assert (np.diff(counts) >= 0).all()
    ROWS.append(["naive", n, benchmark.stats.stats.mean])


@pytest.mark.parametrize("n", [1000, 4000, 16000])
def test_kfunction_grid(benchmark, n):
    ds = chicago_crime(n, seed=72)
    counts = benchmark.pedantic(
        k_function, args=(ds.points, THRESHOLDS),
        kwargs=dict(method="grid"),
        rounds=2, iterations=1,
    )
    assert (np.diff(counts) >= 0).all()
    ROWS.append(["grid", n, benchmark.stats.stats.mean])


def test_methods_identical_counts(benchmark):
    ds = chicago_crime(3000, seed=73)

    def all_methods():
        return [
            k_function(ds.points, THRESHOLDS, method=m)
            for m in ("naive", "grid")
        ]

    naive, grid = benchmark.pedantic(all_methods, rounds=1, iterations=1)
    np.testing.assert_array_equal(naive, grid)


def test_zz_report(benchmark):
    def report():
        by_key = {(m, n): t for m, n, t in ROWS}
        # The paper-shape claim: indexed methods beat the quadratic baseline.
        assert by_key[("grid", 4000)] < by_key[("naive", 4000)]
        # Naive grows ~quadratically: 4x points -> ~16x time (allow 8-32x).
        ratio = by_key[("naive", 4000)] / by_key[("naive", 1000)]
        assert ratio > 6.0

        rows = sorted(ROWS, key=lambda r: (r[0], r[1]))
        return record(
            "ablation_kfunction_methods",
            [[m, n, f"{t * 1e3:.1f} ms"] for m, n, t in rows],
            headers=["method", "n", "mean time"],
            title="Ablation B: K-function backends, 8 thresholds up to s=2.0",
        )

    benchmark.pedantic(report, rounds=1, iterations=1)
