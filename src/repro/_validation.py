"""Shared argument validation helpers.

Every public entry point funnels its inputs through these helpers so that
error messages are consistent across the library and so the numeric code can
assume clean ``float64`` arrays.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "as_points",
    "as_values",
    "as_timestamps",
    "as_weights",
    "as_center",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_thresholds",
    "check_probability",
    "resolve_rng",
    "chunk_ranges",
]


def as_points(points, name: str = "points", allow_empty: bool = False) -> np.ndarray:
    """Coerce ``points`` to a contiguous ``(n, 2)`` float64 array.

    Accepts anything ``np.asarray`` understands: lists of pairs, tuples,
    existing arrays.  Rejects NaN/inf coordinates, wrong dimensionality and
    (by default) empty inputs.
    """
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must be numeric coordinates: {exc}") from exc
    if arr.ndim == 1 and arr.size == 2:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError(
            f"{name} must be an (n, 2) array of planar coordinates, "
            f"got shape {arr.shape}"
        )
    if not allow_empty and arr.shape[0] == 0:
        raise DataError(f"{name} must contain at least one point")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite coordinates")
    return np.ascontiguousarray(arr)


def as_values(values, n: int, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a length-``n`` float64 vector (e.g. IDW samples)."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.shape[0] != n:
        raise DataError(f"{name} must have length {n}, got {arr.shape[0]}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def as_timestamps(times, n: int, name: str = "times") -> np.ndarray:
    """Coerce event timestamps to a length-``n`` float64 vector."""
    return as_values(times, n, name=name)


def as_weights(weights, n: int, name: str = "weights") -> np.ndarray:
    """Coerce per-point weights to a length-``n`` non-negative float64 vector.

    Weights enter kernel sums and tree node aggregates, so they must be
    finite and non-negative (negative mass would break every density
    bound in the library).
    """
    arr = np.asarray(weights, dtype=np.float64).ravel()
    if arr.shape[0] != n:
        raise ParameterError(f"{name} must have length {n}, got {arr.shape[0]}")
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ParameterError(f"{name} must be finite and non-negative")
    return arr


def as_center(center, name: str = "center") -> tuple[float, float]:
    """One query point as finite floats ``(x, y)`` (scalar work only)."""
    try:
        x, y = float(center[0]), float(center[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise DataError(f"{name} must be a pair of coordinates: {exc}") from exc
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DataError(f"{name} contains non-finite coordinates")
    return x, y


def check_positive(value: float, name: str) -> float:
    """Require a strictly positive finite scalar; return it as ``float``."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite number, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require a non-negative finite scalar; return it as ``float``."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be non-negative and finite, got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float) -> float:
    """Require ``low <= value <= high``; return the value as ``float``."""
    value = float(value)
    if not (low <= value <= high):
        raise ParameterError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require a probability in the open interval (0, 1)."""
    value = float(value)
    if not (0.0 < value < 1.0):
        raise ParameterError(f"{name} must lie in (0, 1), got {value}")
    return value


def check_thresholds(thresholds: Iterable[float], name: str = "thresholds") -> np.ndarray:
    """Validate a list of distance/time thresholds.

    Thresholds must be finite, non-negative and non-decreasing (sorted input
    keeps the multi-threshold counting code simple and is what a plot needs
    anyway).  Returns the thresholds as a float64 vector.
    """
    arr = np.asarray(list(thresholds) if not isinstance(thresholds, np.ndarray) else thresholds,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError(f"{name} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ParameterError(f"{name} must be non-negative")
    if np.any(np.diff(arr) < 0):
        raise ParameterError(f"{name} must be sorted in non-decreasing order")
    return arr


def resolve_rng(seed) -> np.random.Generator:
    """Turn ``seed`` (None, int, or Generator) into a NumPy ``Generator``.

    Mirrors the convention of ``np.random.default_rng`` so every stochastic
    routine in the library accepts the same ``seed=`` argument.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def chunk_ranges(total: int, chunk: int) -> Sequence[tuple[int, int]]:
    """Split ``range(total)`` into ``(start, stop)`` chunks of size ``chunk``."""
    if chunk <= 0:
        raise ParameterError(f"chunk size must be positive, got {chunk}")
    return [(start, min(start + chunk, total)) for start in range(0, total, chunk)]
