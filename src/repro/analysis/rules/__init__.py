"""Rule implementations for reprolint.

Importing this package registers every rule with
:mod:`repro.analysis.registry`; the engine and CLI rely on that side
effect, so new rule modules must be added to the import list below.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for their registration side effect)
    api_surface,
    code_hygiene,
    determinism_contracts,
    error_discipline,
    kernel_contracts,
    parallel_discipline,
    purity_contracts,
    service_boundaries,
    span_discipline,
    timing_discipline,
    validation_contracts,
)

__all__ = [
    "api_surface",
    "code_hygiene",
    "determinism_contracts",
    "error_discipline",
    "kernel_contracts",
    "parallel_discipline",
    "purity_contracts",
    "service_boundaries",
    "span_discipline",
    "timing_discipline",
    "validation_contracts",
]
