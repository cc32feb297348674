"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch library failures with a single ``except ReproError`` clause while
still letting programming errors (``TypeError`` from NumPy, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParameterError",
    "DataError",
    "NetworkError",
    "ConvergenceError",
    "AnalysisError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """A parameter value is out of its documented domain.

    Raised, for example, for a non-positive bandwidth, an empty threshold
    list, or an unknown method name.
    """


class DataError(ReproError, ValueError):
    """Input data has the wrong shape, dtype, or contains invalid values."""


class NetworkError(ReproError, ValueError):
    """A road-network operation received an inconsistent graph or position.

    Examples: an edge referencing an unknown node, an event offset that lies
    outside its edge, or a disconnected source in a routine that requires
    reachability.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical routine failed to converge.

    Raised by variogram model fitting and by the bound-based KDV refinement
    when it cannot reach the requested guarantee with the given resources.
    """


class ServeError(ReproError, LookupError):
    """A service-layer request referenced something that does not exist.

    Raised by :mod:`repro.serve` for an unknown dataset or an
    out-of-range tile address — the conditions the HTTP front-end maps
    to a 404, as opposed to :class:`ParameterError`/:class:`DataError`
    (malformed requests, mapped to a 400).
    """


class AnalysisError(ReproError, RuntimeError):
    """The :mod:`repro.analysis` static-analysis tooling failed.

    Raised for malformed baseline files or unknown rule identifiers —
    never for lint findings themselves, which are reported as violations.
    """
