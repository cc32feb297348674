"""Ablation F: the approximation methods' time-vs-error trade-off (§2.2).

The function-approximation and data-sampling families trade accuracy for
speed through their guarantee knobs (eps for the multiplicative bound,
tau for the dual-tree absolute bound, eps/delta for Hoeffding sampling).
This ablation sweeps the knobs on a fixed Gaussian-kernel workload and
records both the measured error and the speed — verifying that every
measured error respects its advertised guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kdv import KDVProblem, kde_dualtree, kde_sampling
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
                [name, f"{t * 1e3:.0f} ms", f"{err:.3f}", f"{bound:.3f}"]
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
