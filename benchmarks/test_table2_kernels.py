"""Table 2: the four kernel functions, each driving a full KDV render.

The paper's Table 2 lists uniform / Epanechnikov / quartic / Gaussian
kernels.  The reproduction renders the same workload with every kernel
(plus the §2.4 "future work" kernels) through ``method="auto"`` and
reports the backend the planner (:func:`~repro.core.kdv.plan_kdv`) picks
for it.  At this size and bandwidth every finite-support kernel's
patches are small, so the cutoff scatter (``grid``) wins; the Gaussian,
whose 1e-12 tail radius is about five bandwidths, goes to ``naive``.
"""

from __future__ import annotations

import pytest

from repro.core.kdv import KDVProblem, kde_grid, plan_kdv

from _util import record

SIZE = (128, 96)
BANDWIDTH = 1.5
ROWS: list[list] = []

TABLE2 = ["uniform", "epanechnikov", "quartic", "gaussian"]
EXTENSIONS = ["triangular", "cosine", "exponential"]


@pytest.mark.parametrize("kernel", TABLE2 + EXTENSIONS)
def test_kernel_kdv(benchmark, kernel, crime):
    grid = benchmark(
        kde_grid, crime.points, crime.bbox, SIZE, BANDWIDTH, kernel=kernel
    )
    assert grid.max > 0
    plan = plan_kdv(
        KDVProblem(crime.points, crime.bbox, SIZE, BANDWIDTH, kernel)
    )
    ROWS.append(
        [
            kernel,
            "Table 2" if kernel in TABLE2 else "extension (2.4)",
            plan.method,
            benchmark.stats.stats.mean * 1e3,
        ]
    )


def test_zz_report(benchmark):
    assert len(ROWS) == len(TABLE2) + len(EXTENSIONS)

    def report():
        return record(
            "table2_kernels",
            [[k, o, m, f"{t:.2f} ms"] for k, o, m, t in ROWS],
            headers=["kernel", "origin", "auto backend", "mean time"],
            title=f"Table 2: kernels on the crime workload (n=2000, {SIZE[0]}x{SIZE[1]})",
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "gaussian" in text
