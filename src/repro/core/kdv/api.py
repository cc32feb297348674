"""Public KDV entry point: one function, eight interchangeable backends.

``kde_grid`` is the library's Definition 1: colour every pixel of an
``nx x ny`` grid by the kernel density value of Equation 1.  The
``method`` argument selects an acceleration family from §2.2:

============  ====================================================  ============
method        algorithm                                             result
============  ====================================================  ============
``auto``      cost-based planner over the exact family              as chosen
``grid``      support-cutoff scatter                                exact*
``sweep``     SLAM-style sweep line, O(Y(X + n))                    exact***
``naive``     brute-force O(XYn) gather over row bands on workers   exact
``dualtree``  parallel tile-vs-node block refinement                |err|<=tau/2
``bounds``    dual tree with a per-tile relative budget             (1±eps)
``sampling``  reweighted uniform subset (Equation 7)                prob.
``adaptive``  Abramson/Silverman per-point bandwidths               exact**
============  ====================================================  ============

(*) for infinite-support kernels, ``grid``/``auto`` truncate below a
``1e-12`` kernel tail; the absolute error is bounded by ``n * 1e-12``.
(**) exact for the *adaptive* estimator, which is a different surface
from the fixed-bandwidth Definition 1.
(***) polynomial kernels only; within ``((2m + 32) 27^k + 4(L/b + 1))
eps K(0) W`` of the exact sum, where ``W`` and ``m`` are the weight and
count of the points within ``4b + 2dx`` in x and ``b`` in y of the pixel
(:mod:`repro.core.kdv.sweep`); empty pixels are exactly 0 and no pixel
is negative.

Each backend is one record of the private registry in
:mod:`repro.core.kdv._registry`: which method-specific keywords it
honours, whether it takes per-point ``weights`` (all but ``bounds`` and
``sampling``, whose analyses assume unit mass), whether ``auto`` plans
among it, and what it costs.  The method names, the keyword audit and
dispatch below are derived from it.  ``dualtree`` spends its
``|err| <= tau/2`` budget against the total weight; ``bounds`` runs the
same refinement with each plan tile's budget set to ``eps`` times a
lower bound on the tile's density.  Both attach a
:class:`~repro.core.kdv.dualtree.RefinementStats` record to
``diagnostics.records["refinement"]``; ``naive`` and ``dualtree`` run
their hot loop through :mod:`repro.parallel` under the bit-identical
worker-invariance contract.  Every backend reports into :mod:`repro.obs`
when tracing is active.

``auto`` resolves through the cost-based planner of
:mod:`repro.core.kdv.planner`: it picks the cheapest exact-family backend
for the problem's shape and the :mod:`repro.parallel` worker default
(``REPRO_WORKERS``), caches plans by problem signature, and records its
decision on the result's ``diagnostics.records["kdv.plan"]``.

Method-specific keywords (``eps``, ``delta``, ``sample``, ``seed``,
``tau``, ``workers``, ``backend``, ``dtype``) raise
:class:`~repro.errors.ParameterError` with an *explicit* method that
would ignore them.  With ``method="auto"`` they are planning hints: the
audit runs against the resolved method, and hints no single backend can
honour together are listed under the plan's ``dropped`` mapping.
"""

from __future__ import annotations

from ... import obs
from ...errors import ParameterError
from ...geometry import BoundingBox
from ...raster import DensityGrid
from ..kernels import Kernel
from ._registry import BACKENDS
from .base import KDVProblem
from .planner import _METHOD_ONLY_PARAMS, plan_kdv

__all__ = ["kde_grid", "KDV_METHODS"]

KDV_METHODS = ("auto", *BACKENDS)


def _check_method(method: str) -> None:
    if method not in KDV_METHODS:
        raise ParameterError(
            f"unknown KDV method {method!r}; available: {', '.join(KDV_METHODS)}"
        )


def kde_grid(
    points,
    bbox: BoundingBox,
    size: tuple[int, int],
    bandwidth: float,
    kernel: str | Kernel = "quartic",
    method: str = "auto",
    weights=None,
    normalize: bool = False,
    eps: float | None = None,
    delta: float | None = None,
    sample: int | None = None,
    tau: float | None = None,
    dtype=None,
    seed=None,
    workers: int | None = None,
    backend: str | None = None,
) -> DensityGrid:
    """Kernel density visualisation (paper Definition 1).

    Parameters
    ----------
    points:
        ``(n, 2)`` event locations.
    bbox:
        Study window the pixel grid tiles.
    size:
        ``(nx, ny)`` pixel resolution (the paper's X x Y).
    bandwidth:
        Kernel bandwidth ``b``.
    kernel:
        A Table 2 kernel name (``"uniform"``, ``"epanechnikov"``,
        ``"quartic"``, ``"gaussian"``) or one of the extension kernels
        (``"triangular"``, ``"cosine"``, ``"exponential"``), or a
        :class:`~repro.core.kernels.Kernel` instance.
    method:
        Backend selector; see the module table.
    weights:
        Optional per-point weights (all methods except ``bounds`` and
        ``sampling``, which raise).
    normalize:
        When true, scale the raw kernel sums by Equation 1's ``w`` so the
        surface integrates to one.
    eps, delta, sample, seed:
        Guarantee / sample-size parameters for ``bounds`` (``eps`` only)
        and ``sampling``; defaults ``eps=0.05``, ``delta=0.05``.
    workers, backend:
        Worker count and executor backend for ``naive`` and
        ``dualtree`` (see :mod:`repro.parallel`; ``workers=None`` uses
        the shared default, i.e. ``REPRO_WORKERS`` /
        :func:`repro.parallel.set_default_workers`, falling back to 1).
        They change wall time only: the output is bit-identical for
        every setting.
    tau:
        Absolute error budget for ``dualtree`` (per-pixel error
        <= tau/2; default ``1e-3``).
    dtype:
        Accuracy mode of the ``grid`` scatter core: ``"float64"``
        (default when omitted; bit-identical to the historical per-point
        loop) or ``"float32"`` (bucketed kernel-table evaluation under
        the bounded-error contract in ``docs/PERFORMANCE.md``).  Only
        honoured by ``method="grid"``; with ``method="auto"`` it is a
        planning hint (see :mod:`repro.core.kdv.planner`), as are all
        the method-specific keywords above.

    Returns
    -------
    :class:`~repro.raster.DensityGrid` (with a ``RefinementStats`` record
    on ``.diagnostics.records["refinement"]`` when ``method`` is
    ``"dualtree"`` or ``"bounds"``,
    and a populated span tree whenever tracing is enabled).
    """
    _check_method(method)
    explicit = {k: v for k, v in dict(
        eps=eps, delta=delta, sample=sample, seed=seed, tau=tau,
        workers=workers, backend=backend, dtype=dtype,
    ).items() if v is not None}

    problem = KDVProblem(points, bbox, size, bandwidth, kernel, weights=weights)

    with obs.task("kdv") as trace:
        # Plan -> audit -> execute.  ``auto`` resolves through the
        # planner *first*, so the audit always runs against a concrete
        # backend and only sees the keywords the plan forwards.
        if method == "auto":
            plan = plan_kdv(problem, explicit)
            method, explicit = plan.method, dict(plan.kwargs)
            trace.record("kdv.plan", plan.as_dict())
        chosen = BACKENDS[method]
        for name in explicit:
            if name not in chosen.params:
                raise ParameterError(
                    f"{name}= is only honoured by method "
                    f"{' / '.join(map(repr, _METHOD_ONLY_PARAMS[name]))}, "
                    f"not {method!r}"
                )
        obs.count("kdv.points", problem.n)
        obs.count("kdv.pixels", problem.nx * problem.ny)
        obs.count(f"kdv.method.{method}")
        grid = chosen.run(problem, **{**chosen.params, **explicit})
        values = grid.values
        if normalize:
            values = values * problem.normalization()
        if grid.diagnostics is not None:
            for key, value in grid.diagnostics.records.items():
                trace.record(key, value)

    diagnostics = (trace.diagnostics if trace.diagnostics is not None
                   else grid.diagnostics)
    if normalize or diagnostics is not grid.diagnostics:
        grid = DensityGrid(grid.bbox, values, diagnostics=diagnostics)
    return grid


def _kde_grid_from_request(points, request, bbox=None, weights=None) -> DensityGrid:
    """Run a :class:`~repro.core.request.KDVRequest` on a point set.

    The request-object twin of the kwarg signature (``kde_grid.from_request``):
    ``request.bbox`` wins when set, else the caller's ``bbox``.  Dispatches
    through :func:`~repro.core.request.execute_request`; an ``auto``
    request is planned once, by ``kde_grid`` itself.
    """
    from ..request import KDVRequest, execute_request

    if not isinstance(request, KDVRequest):
        raise ParameterError(
            f"kde_grid.from_request needs a KDVRequest, got "
            f"{type(request).__name__}"
        )
    return execute_request(request, points, bbox=bbox, weights=weights)


kde_grid.from_request = _kde_grid_from_request

