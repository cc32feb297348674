"""Ablation I: the cost-based auto planner vs measured backend times.

PR 8 replaced the static ``method="auto"`` if/else with a calibrated
cost model (``repro.core.kdv.planner``).  This ablation closes the loop:
it times the candidate backends on a small n x grid-size sweep spanning
the decision table's regimes (tiny problems, the sweep's sharing regime,
a gaussian scatter workload, sub-pixel bandwidths) and asserts that the
backend the planner picks lands within 1.5x of the best *measured*
backend on every swept configuration (sub-5 ms configs are compared
against a 5 ms floor — at that scale the timer, not the planner, is the
noise source).  It also times the LRU plan cache: a cache hit must be
>= 10x faster than cold planning, because the serve layer's hot case is
the same tile replanned on every request.

Emits ``benchmarks/results/BENCH_planner.json`` plus the usual text
table.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import measure
from repro.core.kdv import (
    KDVProblem,
    clear_plan_cache,
    kde_grid,
    plan_kdv,
)
from repro.geometry import BoundingBox

from _util import RESULTS_DIR, record

BBOX = BoundingBox(0.0, 0.0, 100.0, 100.0)

#: label -> (n, size, kernel, bandwidth, backends worth measuring).
#: Methods whose predicted cost is hopeless for a regime (e.g. naive at
#: 16k points on a 12k-pixel grid takes seconds) are deliberately left
#: out of the measured set so the harness stays fast; the planner never
#: picks them there by an order of magnitude.
CONFIGS: dict[str, tuple] = {
    "tiny": (200, (32, 24), "quartic", 10.0,
             ("naive", "grid", "sweep", "dualtree")),
    "sweep_regime": (16_000, (128, 96), "quartic", 16.0,
                     ("grid", "sweep", "dualtree")),
    "gaussian": (8_000, (128, 128), "gaussian", 2.0,
                 ("naive", "grid", "dualtree")),
    "subpixel": (4_000, (64, 48), "quartic", 0.5,
                 ("naive", "grid", "dualtree")),
    # Sub-pixel Gaussian: the separable naive product loses to the grid.
    "subpixel_gaussian": (4_000, (64, 48), "gaussian", 0.5,
                          ("naive", "grid", "dualtree")),
}

#: Below this floor the comparison measures the timer, not the planner.
NOISE_FLOOR_SECONDS = 5e-3
PLANNER_GATE = 1.5
CACHE_GATE = 10.0

TIMES: dict[tuple[str, str], float] = {}


def _points(n: int) -> np.ndarray:
    return np.random.default_rng(42).uniform(0.0, 100.0, size=(n, 2))


def _measured_cases():
    return [(label, method)
            for label, cfg in CONFIGS.items()
            for method in cfg[4]]


@pytest.mark.parametrize("label,method", _measured_cases())
def test_backend_times(benchmark, label, method):
    n, size, kernel, bandwidth, _ = CONFIGS[label]
    pts = _points(n)
    grid = benchmark.pedantic(
        kde_grid, args=(pts, BBOX, size, bandwidth),
        kwargs=dict(kernel=kernel, method=method),
        rounds=2, iterations=1,
    )
    assert grid.max > 0
    TIMES[(label, method)] = benchmark.stats.stats.mean


def test_zz_report(benchmark):
    def report():
        rows = []
        results = []
        for label, (n, size, kernel, bandwidth, methods) in CONFIGS.items():
            problem = KDVProblem(_points(n), BBOX, size, bandwidth, kernel)
            plan = plan_kdv(problem)
            times = {m: TIMES[(label, m)] for m in methods}
            best_method = min(times, key=times.get)
            best = times[best_method]
            assert plan.method in times, (
                f"{label}: planner picked {plan.method!r}, which the "
                f"sweep did not even consider worth measuring"
            )
            picked = times[plan.method]
            ratio = picked / max(best, NOISE_FLOOR_SECONDS)
            assert ratio <= PLANNER_GATE, (
                f"{label}: planner picked {plan.method} "
                f"({picked * 1e3:.1f} ms) but {best_method} measured "
                f"{best * 1e3:.1f} ms — {ratio:.2f}x over the best"
            )
            rows.append([
                label, f"{n}", f"{size[0]}x{size[1]}", kernel,
                plan.method, best_method,
                f"{picked * 1e3:.1f} ms", f"{best * 1e3:.1f} ms",
                f"{ratio:.2f}x",
            ])
            results.append({
                "label": label, "n": n, "grid": list(size),
                "kernel": kernel, "bandwidth": bandwidth,
                "planned": plan.method, "predicted_seconds": plan.cost,
                "best_measured": best_method,
                "measured_seconds": times, "ratio_vs_best": ratio,
            })

        # Plan-cache hit path vs cold planning, 200 plans per side.
        base = KDVProblem(_points(500), BBOX, (64, 48), 2.0)
        varied = [KDVProblem(base.points, BBOX, (64, 48), 2.0 + 0.01 * i)
                  for i in range(200)]

        def cold():
            clear_plan_cache()
            for problem in varied:
                plan_kdv(problem)

        def warm():
            for _ in range(200):
                plan_kdv(base)

        plan_kdv(base)  # prime the cache for the warm path
        cold_seconds, _ = measure(cold, repeat=3)
        warm_seconds, _ = measure(warm, repeat=3)
        cache_speedup = cold_seconds / warm_seconds
        assert cache_speedup >= CACHE_GATE, (
            f"plan-cache hit path only {cache_speedup:.1f}x faster than "
            f"cold planning (gate {CACHE_GATE}x)"
        )
        rows.append([
            "plan cache", "200 plans", "-", "-", "hit path", "cold path",
            f"{warm_seconds * 1e6 / 200:.1f} us",
            f"{cold_seconds * 1e6 / 200:.1f} us",
            f"{cache_speedup:.0f}x",
        ])

        payload = {
            "experiment": "planner",
            "gate_ratio": PLANNER_GATE,
            "noise_floor_seconds": NOISE_FLOOR_SECONDS,
            "results": results,
            "plan_cache": {
                "plans_per_side": 200,
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": cache_speedup,
                "gate": CACHE_GATE,
            },
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_planner.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

        return record(
            "ablation_planner",
            rows,
            headers=["config", "n", "grid", "kernel", "planned", "best",
                     "planned time", "best time", "ratio"],
            title="Ablation I: auto planner vs measured backends "
                  f"(gate {PLANNER_GATE}x, cache gate {CACHE_GATE}x)",
        )

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    assert "plan cache" in text
