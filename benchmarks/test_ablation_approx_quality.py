"""Ablation F: the approximation methods' time-vs-error trade-off (§2.2).

The function-approximation and data-sampling families trade accuracy for
speed through their guarantee knobs (eps for the multiplicative bound,
tau for the dual-tree absolute bound, eps/delta for Hoeffding sampling).
This ablation sweeps the knobs on a fixed Gaussian-kernel workload and
records both the measured error and the speed — verifying that every
measured error respects its advertised guarantee.  The ``bounds`` rows
report the maximum *relative* error against an elementwise float64 sum,
over every pixel above 1e-300.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, kde_bounds, kde_dualtree, kde_sampling
from repro.core.kdv.naive import kde_naive

from _util import record

SIZE = (64, 48)
BANDWIDTH = 1.5
ROWS: list[list] = []


@pytest.fixture(scope="module")
def workload(crime):
    problem = KDVProblem(crime.points, crime.bbox, SIZE, BANDWIDTH, "gaussian")
    reference = kde_naive(problem)
    return problem, reference


@pytest.fixture(scope="module")
def elementwise(workload):
    """Every pixel's kernel sum, one float64 ``evaluate`` per point."""
    problem, _ = workload
    xs, ys = problem.pixel_centers()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    out = np.zeros((problem.nx, problem.ny))
    for px, py in problem.points:
        out += problem.kernel.evaluate(np.hypot(gx - px, gy - py), BANDWIDTH)
    return out


@pytest.mark.parametrize("tau", [10.0, 1.0, 0.1])
def test_dualtree_tau_sweep(benchmark, tau, workload):
    problem, reference = workload
    grid = benchmark.pedantic(
        kde_dualtree, args=(problem,), kwargs=dict(tau=tau),
        rounds=2, iterations=1,
    )
    err = grid.max_abs_difference(reference)
    assert err <= tau / 2 + 1e-9, "the advertised absolute bound must hold"
    ROWS.append(
        [f"dualtree tau={tau}", benchmark.stats.stats.min, err, tau / 2]
    )


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_bounds_eps_sweep(benchmark, eps, workload, elementwise):
    problem, _ = workload
    grid = benchmark.pedantic(
        kde_bounds, args=(problem,), kwargs=dict(eps=eps),
        rounds=2, iterations=1,
    )
    live = elementwise > 1e-300
    rel = np.abs(grid.values[live] - elementwise[live]) / elementwise[live]
    err = float(rel.max())
    assert err <= eps, "the advertised relative bound must hold"
    ROWS.append([f"bounds eps={eps} (relative)", benchmark.stats.stats.min,
                 err, eps])


@pytest.mark.parametrize("sample", [200, 800, 3200])
def test_sampling_size_sweep(benchmark, sample, workload):
    problem, reference = workload
    grid = benchmark.pedantic(
        kde_sampling, args=(problem,), kwargs=dict(sample=sample, seed=1),
        rounds=2, iterations=1,
    )
    err = grid.max_abs_difference(reference)
    n = problem.n
    hoeffding = np.sqrt(np.log(2.0 / 0.05) / (2.0 * sample)) * n
    ROWS.append(
        [f"sampling m={sample}", benchmark.stats.stats.min, err, hoeffding]
    )


def test_zz_report(benchmark):
    def report():
        # Within each family, tighter knobs must reduce the error.
        dual = [r for r in ROWS if r[0].startswith("dualtree")]
        errs = [r[2] for r in dual]
        assert errs == sorted(errs, reverse=True)
        samp = [r for r in ROWS if r[0].startswith("sampling")]
        assert samp[0][2] > samp[-1][2]

        return record(
            "ablation_approx_quality",
            [
                [name, f"{t * 1e3:.0f} ms", f"{err:.3g}", f"{bound:.3g}"]
                for name, t, err, bound in ROWS
            ],
            headers=["method/knob", "best time", "measured max err", "bound"],
            title=(
                "Ablation F: approximation quality "
                f"(gaussian kernel, n=2000, {SIZE[0]}x{SIZE[1]})"
            ),
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "dualtree" in text
