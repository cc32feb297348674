"""Unified analytics requests: one serialisable shape per tool.

The paper frames large-scale geospatial analytics as a *serving*
problem — millions of users issuing repeated KDV / hotspot / K-function
queries over shared datasets — and a service cannot be built on a sprawl
of per-backend keyword arguments.  This module gives every analytic one
frozen, JSON-round-trippable request object:

* :class:`KDVRequest`, :class:`HotspotRequest` and
  :class:`KFunctionRequest` capture exactly the keyword surface of
  :func:`~repro.core.kdv.kde_grid`,
  :meth:`~repro.core.pipeline.HotspotAnalysis.run` and
  :func:`~repro.core.kfunction.k_function_plot`; the kwarg signatures
  keep working unchanged, and each entry point gains a ``from_request``
  constructor that executes a request against a point set;
* ``to_dict()`` / :func:`request_from_dict` round-trip a request through
  plain JSON-safe dicts (the wire format of :mod:`repro.serve`);
* :meth:`AnalyticsRequest.fingerprint` derives a canonical SHA-256 of
  the request — two requests with equal parameters fingerprint
  identically regardless of construction order, which is what lets the
  server coalesce identical concurrent queries and key its caches;
* :func:`plan_request` generalises the PR 8 ``kde_grid`` planner into a
  shape every tool shares: a request plus a dataset resolves to a
  :class:`RequestPlan` (predicted cost, chosen backend, rationale), and
  :func:`execute_request` is the one execute path the server dispatches
  through.

Requests deliberately do **not** carry point coordinates: a request is
the *question*, the dataset is looked up by the execution context (the
server's :class:`~repro.serve.DatasetStore`, or the ``points`` argument
of the library helpers).  That keeps fingerprints cheap and stable and
mirrors the deployed systems the paper surveys, where the dataset lives
server-side and the client ships parameters only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping

import numpy as np

from .. import obs, parallel
from ..errors import ParameterError
from ..geometry import BoundingBox
from .kdv._registry import PARALLEL_EFFICIENCY_EXPONENT
from .kdv.api import _check_method
from .kdv.base import KDVProblem
from .kdv.planner import (
    _METHOD_ONLY_PARAMS,
    _problem_features,
    cost_model,
    plan_kdv,
)

__all__ = [
    "AnalyticsRequest",
    "HotspotRequest",
    "KDVRequest",
    "KFunctionRequest",
    "RequestPlan",
    "REQUEST_KINDS",
    "execute_request",
    "plan_request",
    "request_from_dict",
]

#: Registered request classes by their ``kind`` tag (wire-format dispatch).
_KINDS: dict[str, type] = {}


def _register_kind(cls: type) -> type:
    """Class decorator adding a request class to the wire-format registry."""
    _KINDS[cls.kind] = cls
    return cls


def _as_float_or_none(value, name: str):
    if value is None:
        return None
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return out


def _as_int_or_none(value, name: str):
    if value is None:
        return None
    try:
        out = int(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from exc
    return out


@dataclass(frozen=True)
class AnalyticsRequest:
    """Base of every request: the dataset reference plus shared plumbing.

    ``dataset`` names a server-side dataset (empty for direct library
    use, where the caller supplies ``points`` explicitly).  Subclasses
    add their tool's parameters; all of them are frozen, hashable and
    JSON-round-trippable through :meth:`to_dict` /
    :func:`request_from_dict`.
    """

    kind: ClassVar[str] = ""

    dataset: str = ""

    def to_dict(self) -> dict:
        """JSON-safe dict form: the ``kind`` tag plus every non-None field.

        Tuples become lists (JSON has no tuples); ``from_dict`` converts
        them back, so ``request_from_dict(r.to_dict()) == r`` holds for
        every request.
        """
        out: dict = {"kind": self.kind}
        for field_ in dataclasses.fields(self):
            value = getattr(self, field_.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = list(value)
            out[field_.name] = value
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AnalyticsRequest":
        """Rebuild a request from its :meth:`to_dict` form (see
        :func:`request_from_dict` for the kind-dispatching variant)."""
        if not isinstance(payload, Mapping):
            raise ParameterError(
                f"request payload must be a mapping, got {type(payload).__name__}"
            )
        data = dict(payload)
        kind = data.pop("kind", cls.kind)
        if cls is AnalyticsRequest:
            return request_from_dict({**data, "kind": kind})
        if kind != cls.kind:
            raise ParameterError(
                f"payload kind {kind!r} does not match {cls.__name__} "
                f"(kind {cls.kind!r})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(
                f"unknown field(s) for {cls.__name__}: "
                f"{', '.join(sorted(unknown))}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ParameterError(
                f"invalid {cls.__name__} payload: {exc}"
            ) from exc

    def fingerprint(self) -> str:
        """Canonical SHA-256 hex digest of the request.

        Computed over the sorted-key JSON of :meth:`to_dict`, so two
        requests constructed with equal parameters (in any order, from
        kwargs or from a wire dict) fingerprint identically — the
        coalescing and cache key of :mod:`repro.serve`.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self, **changes) -> "AnalyticsRequest":
        """A copy of the request with ``changes`` applied (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def resolve_bbox(self, bbox: BoundingBox | None) -> BoundingBox:
        """The study window this request runs in.

        Subclasses carrying an explicit ``bbox`` field override it; the
        base resolution just validates the caller-supplied window.
        """
        if bbox is None:
            raise ParameterError(
                f"{type(self).__name__} needs a bbox (none on the request, "
                "none supplied by the caller)"
            )
        return bbox


@_register_kind
@dataclass(frozen=True)
class KDVRequest(AnalyticsRequest):
    """One :func:`~repro.core.kdv.kde_grid` call as a value object.

    Field-for-field the keyword surface of ``kde_grid`` minus the point
    data: ``bbox`` (optional — defaults to the dataset's window), grid
    ``size``, ``bandwidth``, ``kernel``, ``method`` and the
    method-specific keywords, which under ``method="auto"`` act as
    planning hints exactly as they do on ``kde_grid`` itself.
    """

    kind: ClassVar[str] = "kdv"

    bandwidth: float = 0.0
    size: tuple[int, int] = (256, 192)
    bbox: tuple[float, float, float, float] | None = None
    kernel: str = "quartic"
    method: str = "auto"
    normalize: bool = False
    eps: float | None = None
    delta: float | None = None
    sample: int | None = None
    seed: int | None = None
    index: str | None = None
    tau: float | None = None
    dtype: str | None = None
    workers: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        bandwidth = _as_float_or_none(self.bandwidth, "bandwidth")
        if bandwidth is None or bandwidth <= 0.0:
            raise ParameterError(
                f"bandwidth must be a positive number, got {self.bandwidth!r}"
            )
        object.__setattr__(self, "bandwidth", bandwidth)
        _check_method(self.method)
        size = tuple(int(v) for v in self.size)
        if len(size) != 2 or size[0] < 1 or size[1] < 1:
            raise ParameterError(f"size must be (nx, ny) positive, got {self.size!r}")
        object.__setattr__(self, "size", size)
        if self.bbox is not None:
            box = tuple(float(v) for v in self.bbox)
            if len(box) != 4:
                raise ParameterError(
                    f"bbox must be (xmin, ymin, xmax, ymax), got {self.bbox!r}"
                )
            object.__setattr__(self, "bbox", box)
        object.__setattr__(self, "eps", _as_float_or_none(self.eps, "eps"))
        object.__setattr__(self, "delta", _as_float_or_none(self.delta, "delta"))
        object.__setattr__(self, "tau", _as_float_or_none(self.tau, "tau"))
        object.__setattr__(self, "sample", _as_int_or_none(self.sample, "sample"))
        object.__setattr__(self, "seed", _as_int_or_none(self.seed, "seed"))
        object.__setattr__(self, "workers", _as_int_or_none(self.workers, "workers"))

    def resolve_bbox(self, bbox: BoundingBox | None) -> BoundingBox:
        """The request's own window when set, else the caller's."""
        if self.bbox is not None:
            return BoundingBox(*self.bbox)
        return super().resolve_bbox(bbox)

    def kwargs(self) -> dict:
        """``kde_grid`` keyword arguments equivalent to this request."""
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
            if f.name not in ("dataset", "bandwidth", "size", "bbox")
        }


@_register_kind
@dataclass(frozen=True)
class HotspotRequest(AnalyticsRequest):
    """One :meth:`~repro.core.pipeline.HotspotAnalysis.run` as a value object."""

    kind: ClassVar[str] = "hotspot"

    size: tuple[int, int] = (128, 128)
    kernel: str = "quartic"
    thresholds: tuple[float, ...] | None = None
    n_simulations: int = 99
    quantile: float = 0.95
    min_pixels: int = 2
    seed: int | None = None
    workers: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        size = tuple(int(v) for v in self.size)
        if len(size) != 2 or size[0] < 1 or size[1] < 1:
            raise ParameterError(f"size must be (nx, ny) positive, got {self.size!r}")
        object.__setattr__(self, "size", size)
        if self.thresholds is not None:
            object.__setattr__(
                self, "thresholds", tuple(float(t) for t in self.thresholds)
            )
        object.__setattr__(self, "n_simulations", int(self.n_simulations))
        object.__setattr__(self, "quantile", float(self.quantile))
        object.__setattr__(self, "min_pixels", int(self.min_pixels))
        object.__setattr__(self, "seed", _as_int_or_none(self.seed, "seed"))
        object.__setattr__(self, "workers", _as_int_or_none(self.workers, "workers"))

    def kwargs(self) -> dict:
        """``HotspotAnalysis.run`` keyword arguments for this request."""
        thresholds = (
            np.asarray(self.thresholds, dtype=np.float64)
            if self.thresholds is not None else None
        )
        return {
            "size": self.size,
            "thresholds": thresholds,
            "n_simulations": self.n_simulations,
            "quantile": self.quantile,
            "min_pixels": self.min_pixels,
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
        }


@_register_kind
@dataclass(frozen=True)
class KFunctionRequest(AnalyticsRequest):
    """One :func:`~repro.core.kfunction.k_function_plot` as a value object.

    ``thresholds`` may be given explicitly; otherwise a ladder of
    ``n_thresholds`` values up to ``max_threshold`` (default a quarter of
    the window diagonal, the library-wide convention) is generated at
    execution time from the resolved bbox.
    """

    kind: ClassVar[str] = "kfunction"

    thresholds: tuple[float, ...] | None = None
    n_thresholds: int = 12
    max_threshold: float | None = None
    n_simulations: int = 99
    method: str = "auto"
    include_self: bool = False
    seed: int | None = None
    workers: int | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.thresholds is not None:
            object.__setattr__(
                self, "thresholds", tuple(float(t) for t in self.thresholds)
            )
        n_thresholds = int(self.n_thresholds)
        if n_thresholds < 1:
            raise ParameterError(
                f"n_thresholds must be >= 1, got {self.n_thresholds!r}"
            )
        object.__setattr__(self, "n_thresholds", n_thresholds)
        object.__setattr__(
            self, "max_threshold",
            _as_float_or_none(self.max_threshold, "max_threshold"),
        )
        object.__setattr__(self, "n_simulations", int(self.n_simulations))
        object.__setattr__(self, "seed", _as_int_or_none(self.seed, "seed"))
        object.__setattr__(self, "workers", _as_int_or_none(self.workers, "workers"))

    def resolve_thresholds(self, bbox: BoundingBox) -> np.ndarray:
        """Explicit thresholds, or the default ladder over ``bbox``."""
        if self.thresholds is not None:
            return np.asarray(self.thresholds, dtype=np.float64)
        top = self.max_threshold
        if top is None:
            top = 0.25 * bbox.diagonal
        return np.linspace(top / self.n_thresholds, top, self.n_thresholds)

    def kwargs(self) -> dict:
        """``k_function_plot`` keyword arguments (minus thresholds/bbox)."""
        return {
            "n_simulations": self.n_simulations,
            "method": self.method,
            "include_self": self.include_self,
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
        }


#: Registered request kinds (wire-format tags) in registration order.
REQUEST_KINDS = tuple(_KINDS)


def request_from_dict(payload: Mapping) -> AnalyticsRequest:
    """Rebuild any request from its wire dict, dispatching on ``kind``."""
    if not isinstance(payload, Mapping):
        raise ParameterError(
            f"request payload must be a mapping, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ParameterError(
            f"unknown request kind {kind!r}; available: {', '.join(_KINDS)}"
        )
    return cls.from_dict(payload)


@dataclass(frozen=True)
class RequestPlan:
    """A resolved request: which backend runs it and what it should cost.

    Generalises :class:`~repro.core.kdv.planner.KDVPlan` beyond
    ``kde_grid``: every request kind resolves to one of these before
    execution, so the server (and any caller) audits one shape.  For KDV
    requests ``detail`` carries the full ``KDVPlan.as_dict()``; for the
    Monte-Carlo tools it carries the simulation/threshold counts the
    estimate was built from.
    """

    kind: str
    method: str
    cost: float
    rationale: str
    workers: int = 1
    detail: Mapping[str, object] | None = None

    def as_dict(self) -> dict:
        """JSON-serialisable form (recorded on ``Diagnostics``)."""
        return {
            "kind": self.kind,
            "method": self.method,
            "cost": self.cost,
            "rationale": self.rationale,
            "workers": self.workers,
            "detail": dict(self.detail) if self.detail is not None else None,
        }


#: Per-ordered-pair slope of the chunked K-function scan, and the
#: per-simulation CSR overhead — order-of-magnitude anchors in the same
#: spirit as the planner's seeded coefficients.
_K_PAIR_SECONDS = 6.0e-9
_K_SIM_BASE = 2.0e-4


def _monte_carlo_cost(n: int, n_simulations: int, n_thresholds: int,
                      workers: int) -> float:
    """Predicted wall seconds of a CSR-envelope K-function run."""
    eff = max(1.0, float(workers) ** PARALLEL_EFFICIENCY_EXPONENT)
    logn = math.log2(max(float(n), 2.0))
    per_curve = _K_SIM_BASE + _K_PAIR_SECONDS * n * logn * n_thresholds
    return per_curve * (n_simulations + 1) / eff


def plan_request(request: AnalyticsRequest, points,
                 bbox: BoundingBox | None = None) -> RequestPlan:
    """Resolve a request against a dataset into a :class:`RequestPlan`.

    KDV requests with ``method="auto"`` delegate to the calibrated
    :func:`~repro.core.kdv.planner.plan_kdv` cost model (sharing its LRU
    plan cache); explicit-method KDV requests are priced by the same
    model on the same features, and the Monte-Carlo tools get a
    closed-form estimate, so every request kind reports a predicted cost
    through the same shape.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = int(pts.shape[0])
    window = request.resolve_bbox(bbox)

    if isinstance(request, KDVRequest):
        problem = KDVProblem(
            pts, window, request.size, request.bandwidth, request.kernel
        )
        hints = {
            k: v for k, v in request.kwargs().items()
            if k in _METHOD_ONLY_PARAMS and v is not None
        }
        if request.method == "auto":
            plan = plan_kdv(problem, hints)
            return RequestPlan(
                kind=request.kind, method=plan.method, cost=plan.cost,
                rationale=plan.rationale, workers=plan.workers,
                detail=plan.as_dict(),
            )
        workers = parallel.resolve_workers(request.workers)
        cost = cost_model().predict(
            request.method, _problem_features(problem, hints, workers)
        )
        return RequestPlan(
            kind=request.kind, method=request.method, cost=cost,
            rationale=f"explicit method {request.method!r}", workers=workers,
        )

    if isinstance(request, HotspotRequest):
        workers = parallel.resolve_workers(request.workers)
        count = (len(request.thresholds) if request.thresholds is not None
                 else 12)
        cost = _monte_carlo_cost(n, request.n_simulations, count, workers)
        return RequestPlan(
            kind=request.kind, method="envelope+kdv", cost=cost,
            rationale=(
                f"K-envelope ({request.n_simulations} sims x {count} "
                f"thresholds) then KDV at the selected bandwidth"
            ),
            workers=workers,
            detail={"n_simulations": request.n_simulations,
                    "n_thresholds": count},
        )

    if isinstance(request, KFunctionRequest):
        workers = parallel.resolve_workers(request.workers)
        thresholds = request.resolve_thresholds(window)
        cost = _monte_carlo_cost(
            n, request.n_simulations, thresholds.shape[0], workers
        )
        return RequestPlan(
            kind=request.kind, method=request.method, cost=cost,
            rationale=(
                f"CSR envelope: {request.n_simulations} simulations x "
                f"{thresholds.shape[0]} thresholds"
            ),
            workers=workers,
            detail={"n_simulations": request.n_simulations,
                    "n_thresholds": int(thresholds.shape[0])},
        )

    raise ParameterError(
        f"no planner for request kind {type(request).__name__!r}"
    )


def execute_request(request: AnalyticsRequest, points,
                    bbox: BoundingBox | None = None, times=None,
                    weights=None):
    """Run a request against a point set — the one dispatch path.

    Returns the tool's native result (:class:`~repro.raster.DensityGrid`,
    :class:`~repro.core.pipeline.HotspotReport` or
    :class:`~repro.core.kfunction.KFunctionPlot`).  Nothing is planned
    here: ``kde_grid(method="auto")`` plans once and records ``kdv.plan``
    on its own diagnostics.  Callers that need the :class:`RequestPlan`
    up front call :func:`plan_request` themselves, as the server does.

    ``times`` is accepted for signature uniformity with spatiotemporal
    datasets; the current request kinds are purely spatial and ignore it.
    """
    from .kdv import kde_grid
    from .kfunction import k_function_plot
    from .pipeline import HotspotAnalysis

    del times  # spatial request kinds; field reserved for ST requests
    window = request.resolve_bbox(bbox)
    with obs.span(f"request.{request.kind}"):
        obs.count(f"request.kind.{request.kind}")
        if isinstance(request, KDVRequest):
            return kde_grid(
                points, window, request.size, request.bandwidth,
                weights=weights, **request.kwargs(),
            )
        if isinstance(request, HotspotRequest):
            analysis = HotspotAnalysis(points, window, kernel=request.kernel)
            return analysis.run(**request.kwargs())
        if isinstance(request, KFunctionRequest):
            return k_function_plot(
                points, window, request.resolve_thresholds(window),
                **request.kwargs(),
            )
    raise ParameterError(
        f"no executor for request kind {type(request).__name__!r}"
    )
