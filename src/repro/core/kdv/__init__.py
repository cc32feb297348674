"""Kernel density visualisation (KDV) with the paper's four method families."""

from .adaptive import adaptive_bandwidths, kde_adaptive
from .anisotropic import kde_grid_anisotropic
from .api import KDV_METHODS, kde_grid
from .bandwidth import scott_bandwidth, silverman_bandwidth
from .lscv import lscv_bandwidth, lscv_score
from .base import KDVProblem, effective_radius
from .bounds import kde_bounds
from .dualtree import RefinementStats, kde_dualtree
from .planner import (
    CostModel,
    KDVPlan,
    calibrate,
    clear_plan_cache,
    plan_cache_info,
    plan_kdv,
)
from .sampling import kde_sampling, sample_size
from .streaming import MultiSurfaceAccumulator

__all__ = [
    "CostModel",
    "KDVPlan",
    "MultiSurfaceAccumulator",
    "KDVProblem",
    "RefinementStats",
    "calibrate",
    "clear_plan_cache",
    "plan_cache_info",
    "plan_kdv",
    "adaptive_bandwidths",
    "kde_adaptive",
    "lscv_bandwidth",
    "lscv_score",
    "KDV_METHODS",
    "effective_radius",
    "kde_bounds",
    "kde_dualtree",
    "kde_grid",
    "kde_grid_anisotropic",
    "kde_sampling",
    "sample_size",
    "scott_bandwidth",
    "silverman_bandwidth",
]
