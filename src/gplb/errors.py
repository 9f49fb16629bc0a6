"""Exception types shared across the package, and the argument rules.

The split mirrors how callers should react: DomainError means an argument
is outside the mathematical domain of an operation, ContractError means
two individually valid objects do not fit together, QuadratureError means
a numerical routine could not reach its tolerance, ConfigError means an
experiment description is inconsistent, and SchemaVersionError guards the
on-disk report format.

The ``_check_*`` rules below write each argument range once and raise
DomainError naming the argument; a scalar rule given an array checks each
entry.  The caps on counts sit beside their constants, in ``sequence_core``
and ``sparse_linear``.  ``ExperimentConfig`` calls the same rules and turns
their DomainError into a ConfigError with the same message.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "ContractError",
    "QuadratureError",
    "ConfigError",
    "SchemaVersionError",
]


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class ContractError(ValueError):
    """Inputs are individually valid but mutually inconsistent.

    Typical causes: coefficient vectors expressed in a different basis than
    the spectrum they are combined with, shape mismatches, or a family that
    violates a precondition another object relies on (e.g. unequal norms).
    """


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge to the requested tolerance."""

    def __init__(self, message: str, *, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(ValueError):
    """An experiment configuration is invalid or infeasible."""


class SchemaVersionError(ValueError):
    """A report file declares a schema version this code does not support."""

    def __init__(self, found, supported):
        super().__init__(
            f"report schema version {found!r} is not supported "
            f"(this build reads version {supported!r})"
        )
        self.found = found
        self.supported = supported


def _check_positive(value, name: str) -> None:
    """Positive, finite reals, such as n, a scale, alpha, beta, sigma or a radius."""
    if not all(v > 0 and math.isfinite(v) for v in np.ravel(value).tolist()):
        raise DomainError(f"{name} must be positive and finite")


def _check_sample_size(n) -> None:
    """Finite sample sizes of at least 1, where a rate or a grid count is formed from n."""
    if not all(v >= 1 and math.isfinite(v) for v in np.ravel(n).tolist()):
        raise DomainError("sample size n must be finite and at least 1")


def _check_count(value, name: str, floor: int) -> None:
    """Integers of at least ``floor``: lengths, grid counts, levels or numbers of draws."""
    for v in np.ravel(value).tolist():  # NumPy integers become ints, as bools do
        if not isinstance(v, int):
            raise DomainError(f"{name} must be an integer, got {v!r}")
        if v < floor:
            raise DomainError(f"{name} must be at least {floor}")


def _check_dimension(d) -> None:
    _check_count(d, "dimension d", 1)


def _check_delta(delta) -> None:
    if not 0.0 < delta < 0.25:
        raise DomainError("delta must lie strictly between 0 and 1/4")


def _unit_cube_points(x, d: int) -> np.ndarray:
    """Points x in [0, 1]^d, one (d,) point or an (..., d) stack, as an at least 2-d float array."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != d:
        raise DomainError(f"points must have {d} columns, got {pts.shape[-1]}")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise DomainError("evaluation points must lie in the unit cube")
    return pts
