"""Ablation A: the four KDV method families vs the naive baseline (§2.2).

The tutorial's central claim: the naive O(XYn) algorithm is not scalable,
and the four method families — computational sharing (sweep), range
restriction (grid), function approximation (bounds), and data sampling —
each beat it by orders of magnitude.  This ablation times all methods on
a size sweep and regenerates the winner table; the scaling slope of the
naive method (quadratic in the combined problem size) is checked
explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import measure
from repro.core.kdv import kde_grid
from repro.data import chicago_crime

from _util import record

SIZE = (128, 96)
BANDWIDTH = 1.5
ROWS: list[list] = []


@pytest.mark.parametrize("n", [1000, 4000])
def test_kdv_naive(benchmark, n):
    ds = chicago_crime(n, seed=71)
    grid = benchmark.pedantic(
        kde_grid, args=(ds.points, ds.bbox, SIZE, BANDWIDTH),
        kwargs=dict(kernel="quartic", method="naive"),
        rounds=1, iterations=1,
    )
    assert grid.max > 0
    ROWS.append(["naive", n, benchmark.stats.stats.mean])


@pytest.mark.parametrize("n", [1000, 4000, 16000])
@pytest.mark.parametrize("method", ["grid", "sweep", "sampling"])
def test_kdv_fast_methods(benchmark, method, n):
    ds = chicago_crime(n, seed=71)
    kwargs = dict(kernel="quartic", method=method)
    if method == "sampling":
        kwargs.update(eps=0.05, delta=0.05, seed=7)
    grid = benchmark.pedantic(
        kde_grid, args=(ds.points, ds.bbox, SIZE, BANDWIDTH),
        kwargs=kwargs, rounds=2, iterations=1,
    )
    assert grid.max > 0
    ROWS.append([method, n, benchmark.stats.stats.mean])


@pytest.mark.parametrize("n", [1000, 4000])
def test_kdv_bounds_gaussian(benchmark, n):
    """Function approximation on the kernel the sweep cannot handle."""
    ds = chicago_crime(n, seed=71)
    grid = benchmark.pedantic(
        kde_grid, args=(ds.points, ds.bbox, (48, 32), BANDWIDTH),
        kwargs=dict(kernel="gaussian", method="bounds", eps=0.1),
        rounds=1, iterations=1,
    )
    assert grid.max > 0
    ROWS.append(["bounds (gaussian, 48x32)", n, benchmark.stats.stats.mean])


def test_zz_report(benchmark):
    def report():
        rows = sorted(ROWS, key=lambda r: (r[0], r[1]))
        table = [[m, n, f"{t * 1e3:.1f} ms"] for m, n, t in rows]

        # Paper-shape checks: at the common size every family beats naive.
        by_key = {(m, n): t for m, n, t in ROWS}
        naive_4k = by_key[("naive", 4000)]
        for fam in ("grid", "sweep", "sampling"):
            assert by_key[(fam, 4000)] < naive_4k / 5.0, (
                f"{fam} must beat naive by >5x at n=4000"
            )
        # Naive cost grows ~linearly in n at fixed grid (O(XYn)).
        ratio = by_key[("naive", 4000)] / by_key[("naive", 1000)]
        assert 2.0 < ratio < 8.0

        return record(
            "ablation_kdv_methods",
            table,
            headers=["method", "n", "mean time"],
            title=f"Ablation A: KDV methods, quartic kernel, {SIZE[0]}x{SIZE[1]} grid",
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "naive" in text
