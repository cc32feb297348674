"""Ablation: the disabled-tracing overhead of the obs instrumentation.

Every hot path calls :func:`repro.obs.count` unconditionally; with no
active collector the call is a single ``ContextVar`` read.  This ablation
checks the library-wide budget: the no-op events a small ``kde_grid``
emits must cost less than 5% of that grid's wall time.  (Instrumentation
that counts per *point* instead of per *block* blows this guard — that is
the failure mode it exists to catch.)

The guard multiplies the measured per-event no-op cost by the number of
events a traced run records, which is robust to scheduler noise in a way
that differencing two near-equal wall times is not.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.bench import measure
from repro.core.kdv import kde_grid

from _util import RESULTS_DIR, record

SIZE = (64, 48)
BANDWIDTH = 1.2
NOOP_CALLS = 20_000

ROWS: list[list] = []


@pytest.fixture(scope="module")
def workload(crime):
    return crime.points, crime.bbox


def _run_grid(points, bbox, method, workers):
    return kde_grid(points, bbox, SIZE, BANDWIDTH, method=method,
                    workers=workers)


def _noop_seconds_per_event() -> float:
    """Best-of-5 cost of one disabled obs.count call."""
    assert not obs.is_active()

    def burst():
        for _ in range(NOOP_CALLS):
            obs.count("bench.noop", 1)

    best, _ = measure(burst, repeat=5)
    return best / NOOP_CALLS


# naive at workers=2 keeps the executor's per-band path under the budget.
@pytest.mark.parametrize("method, workers",
                         [("naive", None), ("grid", None), ("naive", 2)])
def test_obs_overhead_guard(benchmark, workload, method, workers):
    points, bbox = workload

    # Count the events this workload emits (same code path, collector on).
    with obs.enabled() as trace:
        _run_grid(points, bbox, method, workers)
    n_events = trace.n_events

    grid = benchmark.pedantic(
        _run_grid, args=(points, bbox, method, workers), rounds=3,
        iterations=1,
    )
    assert np.isfinite(grid.values).all()

    disabled_seconds = benchmark.stats.stats.min
    overhead = n_events * _noop_seconds_per_event()
    ratio = overhead / disabled_seconds
    label = method if workers is None else f"{method} (workers={workers})"
    ROWS.append([label, n_events, disabled_seconds, overhead, ratio])

    # Like the other perf asserts, only enforce where timing is credible.
    if (os.cpu_count() or 1) >= 2:
        assert ratio < 0.05, (
            f"disabled tracing costs {ratio:.1%} of kde_grid[{label}]; "
            "hot loops must batch counters per block, not per element"
        )


def test_zz_report(benchmark):
    def report():
        payload = {
            "experiment": "obs_overhead",
            "grid": list(SIZE),
            "bandwidth": BANDWIDTH,
            "budget": 0.05,
            "results": [
                {
                    "method": m,
                    "events": e,
                    "grid_seconds": t,
                    "overhead_seconds": o,
                    "overhead_ratio": r,
                }
                for m, e, t, o, r in ROWS
            ],
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_obs_overhead.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        rows = [
            [m, e, f"{t * 1e3:.1f} ms", f"{o * 1e6:.1f} us", f"{r:.2%}"]
            for m, e, t, o, r in ROWS
        ]
        return record(
            "obs_overhead",
            rows,
            ["method", "obs events", "kde_grid", "no-op cost", "ratio"],
            title="Disabled-tracing overhead budget (<5% of kde_grid)",
        )

    benchmark.pedantic(report, rounds=1, iterations=1)
