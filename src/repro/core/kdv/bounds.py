"""Bound-based KDV: the paper's function-approximation method family.

Following QUAD [25] / KARL [34], a kd-tree node bounds its points' kernel
contribution: with ``m`` points under a node and pixel-to-node distance
bounds ``dmin <= dist <= dmax``, monotonicity of the kernel yields

    m * K(dmax)  <=  contribution  <=  m * K(dmin).

``bounds`` is a mode of the dual-tree refinement (:mod:`.dualtree`), which
applies these bounds to whole pixel tiles at once.  Its plan sums
``m * K(dmax)`` over the nodes it keeps for each plan tile ``T``, a lower
bound ``L_T`` on every pixel of ``T``; the tile is then refined under the
absolute budget ``eps * L_T``, so every pixel satisfies

    (1 - eps) * F(q)  <=  R(q)  <=  (1 + eps) * F(q)        (Equation 6)

including low-density pixels, and an empty pixel stays exactly 0.  Works
with any monotone non-increasing kernel — including the Gaussian, which
the sweep-line method cannot handle.
"""

from __future__ import annotations

from ..._validation import check_non_negative
from ...errors import ParameterError
from .base import KDVProblem
from .dualtree import _refine

__all__ = ["kde_bounds"]


def kde_bounds(problem: KDVProblem, eps: float = 0.05, leaf_size: int = 32):
    """KDV with a per-pixel multiplicative (1 +/- eps) guarantee.

    Parameters
    ----------
    problem:
        The KDV instance.  Per-point weights are not supported by this
        backend: the relative bound needs non-negative unit mass.
    eps:
        Relative approximation guarantee of Equation 6; ``eps = 0`` forces
        exact evaluation (the same values as ``kde_dualtree(tau=0)``).
    leaf_size:
        kd-tree leaf size.

    Returns
    -------
    :class:`~repro.raster.DensityGrid` with the dual tree's
    :class:`~repro.core.kdv.dualtree.RefinementStats` record on
    ``grid.diagnostics.records["refinement"]``.
    """
    if problem.weights is not None:
        raise ParameterError(
            "the bound-based backend does not support point weights")
    eps = check_non_negative(eps, "eps")
    return _refine(problem, "kdv.bounds", leaf_size, None, None, eps=eps)
