"""Ablation G: plan/execute dual-tree refinement across worker counts.

The dual-tree KDV backend plans a worker-invariant tile partition of the
pixel grid (a cheap serial descent), then refines each tile as an
independent job.  This ablation times the refinement at workers in
{1, 2, 4, 8} on the process backend — the refinement loop is
Python-bound, so threads cannot scale it — and verifies the determinism
contract: the surface at any worker count is bit-identical to the serial
one, and the tau=0 run matches the O(N·M) naive scan.

Besides the human-readable table, the run emits a machine-readable
``benchmarks/results/BENCH_dualtree_parallel.json`` with per-worker mean
wall-times plus the plan-phase refinement counters, so downstream
tooling can track both the scaling curve and the pruning behaviour.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, kde_dualtree
from repro.core.kdv.naive import kde_naive

from _util import RESULTS_DIR, record

SIZE = (256, 192)
BANDWIDTH = 1.2
TAU = 1e-3
SEED = 2023
WORKER_COUNTS = [1, 2, 4, 8]

ROWS: list[list] = []
STATS: dict = {}


def _problem(crime_large):
    return KDVProblem(
        crime_large.points, crime_large.bbox, SIZE, BANDWIDTH, "gaussian"
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_dualtree_workers(benchmark, workers, crime_large):
    problem = _problem(crime_large)
    grid = benchmark.pedantic(
        kde_dualtree,
        args=(problem,),
        kwargs=dict(tau=TAU, workers=workers, backend="process"),
        rounds=2,
        iterations=1,
    )
    assert grid.values.shape == SIZE
    if workers == 1:
        STATS.update(grid.diagnostics.records["refinement"].as_dict())
    ROWS.append([workers, benchmark.stats.stats.mean])


def test_workers_bit_identical(crime_large):
    """workers=4 must reproduce serial workers=1 exactly (the contract)."""
    problem = _problem(crime_large)
    one = kde_dualtree(problem, tau=TAU, workers=1, backend="serial")
    four = kde_dualtree(problem, tau=TAU, workers=4, backend="process")
    assert np.array_equal(one.values, four.values)


def test_tau_zero_matches_naive(crime):
    """Exact mode (tau=0) reproduces the brute-force scan to float noise."""
    problem = KDVProblem(crime.points, crime.bbox, (96, 72), BANDWIDTH, "gaussian")
    ref = kde_naive(problem)
    got = kde_dualtree(problem, tau=0.0, workers=2, backend="process")
    assert got.max_abs_difference(ref) < 1e-12 * max(ref.max, 1.0)


def test_zz_report(benchmark):
    def report():
        by_workers = dict(ROWS)
        base = by_workers[1]
        cores = os.cpu_count() or 1
        payload = {
            "experiment": "dualtree_parallel",
            "n_events": 20_000,
            "grid": list(SIZE),
            "bandwidth": BANDWIDTH,
            "tau": TAU,
            "backend": "process",
            "cores_available": cores,
            "plan_stats": STATS,
            "results": [
                {"workers": w, "mean_seconds": t, "speedup": base / t}
                for w, t in sorted(ROWS)
            ],
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_dualtree_parallel.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        # Speedup claims only hold when physical cores exist to back them;
        # on a 1-core runner the contract is just "not much slower".
        if cores >= 4:
            assert base / by_workers[4] > 2.0
        elif cores >= 2:
            assert base / by_workers[2] > 1.1
        rows = [
            [w, f"{t * 1e3:.0f} ms", f"{base / t:.2f}x"]
            for w, t in sorted(ROWS)
        ]
        return record(
            "ablation_dualtree_parallel",
            rows,
            headers=["workers", "mean time", "speedup"],
            title=(
                f"Ablation G: dual-tree KDV plan/execute, n=20000, "
                f"grid {SIZE[0]}x{SIZE[1]}, tau={TAU}, process backend "
                f"({cores} cores available)"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "speedup" in text
