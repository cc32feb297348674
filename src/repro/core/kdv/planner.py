"""Cost-based planner behind ``kde_grid(method="auto")``.

The paper's §2.2 observation is that no single acceleration family wins
everywhere: the crossovers between the ``kde_grid`` backends depend on
the event count, the pixel resolution, the bandwidth-to-pixel ratio and
the kernel family.  ``kde_grid`` therefore plans, audits, then executes:

* :func:`plan_kdv` resolves a problem plus the caller's explicit
  method-specific keywords into a :class:`KDVPlan` — the chosen backend,
  the keyword subset that backend honours, the keywords that were
  dropped (with reasons), the predicted per-backend costs and a
  human-readable rationale;
* a small calibrated :class:`CostModel` predicts per-backend wall time
  from ``(n, nx*ny, bandwidth/pixel ratio, kernel family, workers)``
  through each backend's record in :mod:`repro.core.kdv._registry`.
  The shipped coefficients are seeded from the repository's own
  benchmark artefacts (``benchmarks/results/BENCH_*.json`` and
  ``ablation_kdv_methods.txt``) and can be refreshed from
  :mod:`repro.obs` traces via :func:`calibrate`;
* an LRU plan cache keyed by the problem signature lets repeated
  identical queries (the serve layer's hot case) skip planning
  entirely — see :func:`plan_cache_info` / :func:`clear_plan_cache`.

Keyword semantics under ``auto``: an explicit method-specific keyword is
a *planning hint*, never an error.  The planner restricts the candidate
pool to the backends that honour the largest number of the requested
keywords (so ``workers=2`` steers planning to the parallel-capable
backends, ``tau=`` to dual-tree, ``seed=`` to sampling) and picks the
cheapest member by predicted cost.  Keywords the winning backend cannot
honour — possible only for contradictory combinations such as
``workers=2, dtype="float32"`` where no single backend honours both —
are recorded in ``KDVPlan.dropped`` and surfaced through
:class:`repro.obs.Diagnostics`, not silently ignored and not fatal.
With an explicit ``method=`` the strict audit still applies unchanged.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from ... import obs, parallel
from ...errors import ParameterError
from ._registry import BACKENDS, Backend
from .base import KDVProblem, effective_radius

__all__ = [
    "AUTO_CANDIDATES",
    "CostModel",
    "KDVPlan",
    "PLAN_CACHE_MAXSIZE",
    "calibrate",
    "clear_plan_cache",
    "cost_model",
    "plan_cache_info",
    "plan_kdv",
]

# Which methods honour each method-specific keyword (from the backend
# registry).  ``None`` (the argument default) always means "not
# requested"; with an explicit ``method=`` an explicit value outside its
# row is an error rather than a silent no-op, while under
# ``method="auto"`` it is a planning hint (see the module docstring).
_METHOD_ONLY_PARAMS: dict[str, tuple[str, ...]] = {
    name: tuple(b.name for b in BACKENDS.values() if name in b.params)
    for name in dict.fromkeys(k for b in BACKENDS.values() for k in b.params)
}

#: Backends ``auto`` plans among when no keyword hint widens the pool:
#: the exact family (dual-tree's ``|err| <= tau/2`` with the default
#: ``tau=1e-3`` included).  Order is the deterministic cost tiebreak.
AUTO_CANDIDATES = tuple(b.name for b in BACKENDS.values() if b.auto)

#: Maximum number of cached plans (LRU eviction beyond this).
PLAN_CACHE_MAXSIZE = 256


@dataclass(frozen=True)
class KDVPlan:
    """A resolved ``method="auto"`` decision (the plan of plan → audit → execute).

    Attributes
    ----------
    method:
        The backend ``kde_grid`` will execute.
    kwargs:
        The method-specific keywords forwarded to that backend — always a
        subset of the caller's explicit keywords that ``method`` honours.
    dropped:
        Explicit keywords the chosen backend does not honour, mapped to a
        reason string.  Non-empty only for contradictory hint
        combinations (no single backend honours them all).
    cost:
        Predicted wall seconds of the chosen backend.
    costs:
        Predicted wall seconds of every feasible candidate.
    rationale:
        One human-readable sentence explaining the choice.
    features:
        The cost-model inputs (kept so :func:`calibrate` can replay the
        prediction against a measured trace).
    workers:
        The effective worker count the plan was made for (explicit
        ``workers=`` or the :mod:`repro.parallel` default).
    cache_hit:
        True when this plan came from the LRU cache.
    """

    method: str
    kwargs: Mapping[str, object] = field(default_factory=dict)
    dropped: Mapping[str, str] = field(default_factory=dict)
    cost: float = 0.0
    costs: Mapping[str, float] = field(default_factory=dict)
    rationale: str = ""
    features: Mapping[str, object] = field(default_factory=dict)
    workers: int = 1
    cache_hit: bool = False

    def as_dict(self) -> dict:
        """JSON-serialisable form (recorded on ``Diagnostics``)."""
        return {
            "method": self.method,
            "kwargs": {k: str(v) for k, v in self.kwargs.items()},
            "dropped": dict(self.dropped),
            "cost": self.cost,
            "costs": dict(self.costs),
            "rationale": self.rationale,
            "features": dict(self.features),
            "workers": self.workers,
            "cache_hit": self.cache_hit,
        }


@dataclass(frozen=True)
class CostModel:
    """Per-backend wall-time predictions from problem shape features.

    Each backend gets a closed-form cost in seconds built from a handful
    of named coefficients.  The default coefficients are *measured*, not
    guessed — they are fitted to this repository's committed benchmark
    artefacts:

    * ``naive_pp`` / ``parallel_pp`` / ``sweep_unit`` — the per-unit
      slopes of the gather and sweep rows of
      ``benchmarks/results/ablation_kdv_methods.txt`` (quartic kernel,
      128x96 grid; e.g. naive 1.923 s / (4000 * 12288) ≈ 3.9e-8 s per
      point-pixel distance evaluation);
    * ``dualtree_build`` / ``dualtree_refine`` — the plan and execute
      phases of ``BENCH_dualtree_parallel.json`` /
      ``BENCH_scatter_core.json`` (20k events, 256x192, gaussian,
      tau=1e-3) divided by ``n log2 n`` and ``npx log2 n``;
    * ``grid_f32_factor`` — the measured float32/float64 gridcut ratio
      of ``BENCH_scatter_core.json`` (the kernel-table mode pays
      bucketing overhead, it is not free);
    * the remaining scatter/base terms are order-of-magnitude anchors
      chosen so the model reproduces every row ordering of the ablation
      table.

    :func:`calibrate` rescales each backend's calibrated coefficient from
    :mod:`repro.obs` traces and installs the result as the process-wide
    model (invalidating the plan cache).
    """

    coefficients: Mapping[str, float] = field(default_factory=dict)
    source: str = "seeded from benchmarks/results (PR 8)"

    def coefficient(self, name: str) -> float:
        """One named coefficient, falling back to the shipped default."""
        value = self.coefficients.get(name)
        if value is None:
            value = _DEFAULT_COEFFICIENTS[name]
        return float(value)

    def predict(self, method: str, features: Mapping[str, object]) -> float:
        """Predicted wall seconds of ``method`` on a problem's features."""
        backend = BACKENDS.get(method)
        if backend is None:
            raise ParameterError(f"cost model has no backend named {method!r}")
        return backend.cost(self.coefficient, features)


_DEFAULT_COEFFICIENTS: dict[str, float] = {
    "naive_pp": 3.2e-8,
    "parallel_pp": 3.0e-8,
    "parallel_overhead": 2.0e-3,
    "grid_base": 4.0e-3,
    "grid_pp": 3.0e-9,
    "grid_px": 5.0e-9,
    "grid_f32_factor": 1.45,
    "sweep_base": 8.0e-3,
    "sweep_unit": 2.0e-8,
    "dualtree_base": 2.0e-2,
    "dualtree_build": 1.4e-7,
    "dualtree_refine": 5.1e-7,
    "bounds_unit": 4.6e-6,
    "sampling_base": 2.0e-2,
}

_model = CostModel()
#: Bumped on every model (re)installation; part of the plan-cache key so
#: recalibration invalidates every cached plan.
_model_generation = 0

_plan_cache: "OrderedDict[tuple, KDVPlan]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def cost_model() -> CostModel:
    """The process-wide cost model the planner currently uses."""
    return _model


def _set_model(model: CostModel) -> None:
    global _model, _model_generation
    _model = model
    _model_generation += 1
    _plan_cache.clear()


def plan_cache_info() -> dict:
    """Plan-cache statistics: hits, misses, current size, max size."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_plan_cache),
        "maxsize": PLAN_CACHE_MAXSIZE,
    }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _cache_hits, _cache_misses
    _plan_cache.clear()
    _cache_hits = 0
    _cache_misses = 0


def _problem_features(problem: KDVProblem, requested: Mapping[str, object],
                      workers: int) -> dict:
    """Cost-model inputs from a problem plus the caller's keyword hints."""
    dx, dy = problem.bbox.pixel_size(problem.nx, problem.ny)
    radius = effective_radius(problem.kernel, problem.bandwidth)
    npx = problem.nx * problem.ny
    patch = min(float(npx),
                math.pi * (radius / dx + 1.0) * (radius / dy + 1.0))
    return {
        "n": problem.n,
        "nx": problem.nx,
        "ny": problem.ny,
        "patch": patch,
        "bandwidth": float(problem.bandwidth),
        "kernel": problem.kernel.name,
        "poly": problem.kernel.poly_coeffs(problem.bandwidth) is not None,
        "sub_pixel": problem.bandwidth < 2.0 * max(dx, dy),
        "weighted": problem.weights is not None,
        "workers": workers,
        "dtype": requested.get("dtype"),
        "tau": requested.get("tau"),
        "eps": requested.get("eps"),
        "sample": requested.get("sample"),
    }


def _infeasible_reason(backend: Backend,
                       features: Mapping[str, object]) -> str | None:
    """Why ``backend`` cannot run this problem, or ``None`` if it can."""
    if features["weighted"] and not backend.weights:
        return "rejects per-point weights"
    return backend.infeasible(features)


def _normalise_requested(requested: Mapping[str, object] | None) -> dict:
    requested = {} if requested is None else dict(requested)
    unknown = set(requested) - set(_METHOD_ONLY_PARAMS)
    if unknown:
        raise ParameterError(
            f"unknown method-specific parameter(s) for the auto planner: "
            f"{', '.join(sorted(unknown))}"
        )
    return {k: v for k, v in requested.items() if v is not None}


def _plan_key(problem: KDVProblem, requested: Mapping[str, object],
              workers: int) -> tuple:
    """Hashable problem signature for the LRU plan cache.

    Two problems with the same shape (n, grid, bandwidth, kernel,
    weightedness) and the same hints plan identically — the cost model
    never looks at the coordinates themselves — so the signature
    deliberately omits the point data.
    """
    return (
        problem.n, problem.nx, problem.ny, float(problem.bandwidth),
        problem.kernel.name, problem.weights is not None,
        tuple(sorted((k, str(v)) for k, v in requested.items())),
        workers, _model_generation,
    )


def _compute_plan(problem: KDVProblem, requested: Mapping[str, object],
                  workers: int) -> KDVPlan:
    """The cold planning path (cache miss)."""
    features = _problem_features(problem, requested, workers)

    # Candidate pool: the exact family, widened by any backend that
    # honours an explicitly requested keyword (eps= pulls in bounds and
    # sampling, seed= pulls in sampling, ...).
    candidates = list(AUTO_CANDIDATES)
    for name in requested:
        for method in _METHOD_ONLY_PARAMS[name]:
            if method not in candidates:
                candidates.append(method)

    infeasible = {m: reason for m in candidates
                  if (reason := _infeasible_reason(BACKENDS[m], features))}
    # The exact family always has members that run every problem, so
    # the pool can never be empty.
    feasible = [m for m in candidates if m not in infeasible]

    def honoured(method: str) -> list[str]:
        return [k for k in requested if method in _METHOD_ONLY_PARAMS[k]]

    best_score = max(len(honoured(m)) for m in feasible)
    pool = [m for m in feasible if len(honoured(m)) == best_score]

    costs = {m: _model.predict(m, features) for m in feasible}
    method = min(pool, key=lambda m: (costs[m], candidates.index(m)))

    kwargs = {k: v for k, v in requested.items()
              if method in _METHOD_ONLY_PARAMS[k]}
    dropped = {
        k: (f"no single backend honours the full hint set; resolved "
            f"method {method!r} does not honour {k}=")
        for k in requested if k not in kwargs
    }

    bits = [f"predicted {costs[method] * 1e3:.1f} ms"]
    if best_score:
        bits.append(f"honours {'/'.join(sorted(kwargs))}=")
    runners = sorted((c, m) for m, c in costs.items() if m != method)
    if runners:
        bits.append(f"next {runners[0][1]} at {runners[0][0] * 1e3:.1f} ms")
    if workers > 1:
        bits.append(f"{workers} workers available")
    for m, reason in infeasible.items():
        bits.append(f"{m} infeasible ({reason})")
    rationale = f"{method}: " + "; ".join(bits)

    return KDVPlan(
        method=method, kwargs=kwargs, dropped=dropped,
        cost=costs[method], costs=costs, rationale=rationale,
        features=features, workers=workers,
    )


def plan_kdv(problem: KDVProblem,
             requested: Mapping[str, object] | None = None) -> KDVPlan:
    """Resolve ``method="auto"`` for a problem into a :class:`KDVPlan`.

    Parameters
    ----------
    problem:
        The validated KDV instance to plan for.
    requested:
        The caller's *explicit* method-specific keywords (a subset of
        ``eps/delta/sample/seed/index/tau/workers/backend/dtype``;
        ``None`` values are treated as "not requested").  They act as
        planning hints — see the module docstring for the semantics.

    Returns the cached plan when an identical problem signature was
    planned before (``plan.cache_hit`` is true, and the
    ``kdv.plan.cache_hit`` counter fires when tracing is active).
    """
    global _cache_hits, _cache_misses
    if not isinstance(problem, KDVProblem):
        raise ParameterError("plan_kdv expects a KDVProblem")
    requested = _normalise_requested(requested)
    workers = parallel.resolve_workers(requested.get("workers"))

    key = _plan_key(problem, requested, workers)
    cached = _plan_cache.get(key)
    if cached is not None:
        _plan_cache.move_to_end(key)
        _cache_hits += 1
        obs.count("kdv.plan.cache_hit")
        return cached

    with obs.span("kdv.plan"):
        plan = _compute_plan(problem, requested, workers)
    _cache_misses += 1
    obs.count("kdv.plan.cache_miss")
    obs.count(f"kdv.plan.method.{plan.method}")
    if plan.dropped:
        obs.count("kdv.plan.dropped_kwargs", len(plan.dropped))
    # The hit-marked twin is built once here so cache hits return a
    # ready-made object instead of paying dataclasses.replace per call.
    _plan_cache[key] = replace(plan, cache_hit=True)
    while len(_plan_cache) > PLAN_CACHE_MAXSIZE:
        _plan_cache.popitem(last=False)
    return plan


# --------------------------------------------------------------------------
# Calibration: refresh coefficients from obs traces.
# --------------------------------------------------------------------------

def _fit_from_traces(traces: Iterable, fitted: dict[str, float]) -> None:
    """Multiplicative per-backend rescale from measured ``kdv`` task traces.

    Each :class:`~repro.obs.Diagnostics` produced by a traced
    ``kde_grid(method="auto")`` run carries the plan (predicted cost +
    features) and the task's measured wall seconds.  The ratio
    measured/predicted, geometric-averaged per backend, rescales that
    backend's calibrated coefficient — the "refresh from production
    traces" loop the serve layer will drive.
    """
    log_ratios: dict[str, list[float]] = {}
    for diagnostics in traces:
        record_ = getattr(diagnostics, "records", {}).get("kdv.plan")
        if not isinstance(record_, Mapping):
            continue
        predicted = float(record_.get("cost") or 0.0)
        root = getattr(diagnostics, "root", None)
        measured = float(getattr(root, "seconds", 0.0) or 0.0)
        backend = BACKENDS.get(record_.get("method"))
        if (predicted <= 0.0 or measured <= 0.0 or backend is None
                or backend.calibrates is None):
            continue
        log_ratios.setdefault(backend.calibrates, []).append(
            math.log(measured / predicted)
        )
    for name, ratios in log_ratios.items():
        scale = math.exp(sum(ratios) / len(ratios))
        fitted[name] = _model.coefficient(name) * scale


def calibrate(traces: Iterable | None = None) -> CostModel:
    """Refit the cost model and install it process-wide.

    Parameters
    ----------
    traces:
        Optional iterable of :class:`~repro.obs.Diagnostics` records from
        traced ``kde_grid(method="auto")`` runs; measured-vs-predicted
        ratios rescale each backend's calibrated coefficient.

    Returns the installed :class:`CostModel`.  Installation bumps the
    model generation, invalidating every cached plan.
    """
    fitted = dict(_model.coefficients)
    source = "calibrated from nothing new"
    if traces is not None:
        _fit_from_traces(traces, fitted)
        source = "calibrated from obs traces"
    model = CostModel(coefficients=fitted, source=source)
    _set_model(model)
    return model
