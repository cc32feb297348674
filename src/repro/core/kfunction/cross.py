"""Bivariate (cross) K-function.

The K-function family's standard extension for *two* event types — e.g.
"are crimes clustered around bars?", "do two disease strains co-locate?".
The cross-K counts type-B events within ``s`` of each type-A event:

    K_AB(s) = sum_{a in A} sum_{b in B} I(dist(a, b) <= s).

Significance uses the **random labelling** null: the combined point set is
fixed and the type labels are permuted, which tests association between
the types *given* the overall spatial pattern — the appropriate null when
both types live on the same streets/population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import obs
from ..._validation import as_points, check_thresholds
from ...errors import ParameterError
from ...index import GridIndex, threshold_totals
from ...parallel import parallel_map, spawn_rngs

__all__ = ["cross_k_function", "CrossKFunctionPlot", "cross_k_function_plot"]


def cross_k_function(points_a, points_b, thresholds) -> np.ndarray:
    """Raw cross-K counts of B-neighbours around A-events.

    Unlike the univariate K there are no self-pairs to exclude (the two
    sets are distinct by construction); coincident A/B points count.
    """
    a = as_points(points_a, name="points_a")
    b = as_points(points_b, name="points_b")
    ts = check_thresholds(thresholds)
    return threshold_totals(GridIndex.for_radius(b, ts[-1]), a, ts)


@dataclass(frozen=True)
class CrossKFunctionPlot:
    """Observed cross-K with its random-labelling envelope."""

    thresholds: np.ndarray
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_simulations: int
    diagnostics: "obs.Diagnostics | None" = None

    def attraction_mask(self) -> np.ndarray:
        """Thresholds where the types co-locate more than labels predict."""
        return self.observed > self.upper

    def repulsion_mask(self) -> np.ndarray:
        """Thresholds where the types avoid each other."""
        return self.observed < self.lower

    def classify(self) -> list[str]:
        out = []
        for obs, lo, hi in zip(self.observed, self.lower, self.upper):
            if obs > hi:
                out.append("attraction")
            elif obs < lo:
                out.append("repulsion")
            else:
                out.append("independent")
        return out


def _cross_label_task(task):
    """One random-labelling simulation of the cross-K (module-level)."""
    rng, combined, n_a, ts = task
    with obs.span("simulation"):
        obs.count("crossk.permutations")
        perm = rng.permutation(combined.shape[0])
        return cross_k_function(combined[perm[:n_a]], combined[perm[n_a:]], ts)


def cross_k_function_plot(
    points_a,
    points_b,
    thresholds,
    n_simulations: int = 99,
    seed=None,
    workers: int | None = None,
    backend: str | None = None,
) -> CrossKFunctionPlot:
    """Cross-K plot under the random-labelling null.

    Each simulation shuffles the A/B labels over the combined point set
    (sizes preserved) and recomputes the cross-K.  Simulations fan out
    over the shared executor (``workers``/``backend``, see
    :mod:`repro.parallel`) with one RNG stream per simulation, so the
    envelope is bit-identical for every worker count.
    """
    a = as_points(points_a, name="points_a")
    b = as_points(points_b, name="points_b")
    ts = check_thresholds(thresholds)
    n_simulations = int(n_simulations)
    if n_simulations < 1:
        raise ParameterError(f"n_simulations must be >= 1, got {n_simulations}")

    with obs.task("crossk.plot") as trace:
        observed = cross_k_function(a, b, ts)
        combined = np.vstack([a, b])
        n_a = a.shape[0]

        tasks = [
            (rng, combined, n_a, ts) for rng in spawn_rngs(seed, n_simulations)
        ]
        sims = np.vstack(
            parallel_map(_cross_label_task, tasks, workers=workers,
                         backend=backend)
        )

    return CrossKFunctionPlot(
        thresholds=ts,
        observed=observed.astype(np.float64),
        lower=sims.min(axis=0).astype(np.float64),
        upper=sims.max(axis=0).astype(np.float64),
        n_simulations=n_simulations,
        diagnostics=trace.diagnostics,
    )
