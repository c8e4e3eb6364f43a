"""Argument-validation helpers.

All public constructors in :mod:`repro` validate their numeric arguments through the
functions here so that error messages are uniform and tests can rely on
:class:`ValueError` being raised for invalid model parameters.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "require",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_rate_matrix",
    "check_symmetric_rates",
    "as_float_array",
    "all_close",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str = "value") -> float:
    """Validate that *value* is a finite, strictly positive scalar and return it."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Validate that *value* is a finite, non-negative scalar and return it."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that *value* lies in the closed interval [0, 1] and return it."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def as_float_array(values: Iterable[float], name: str = "array") -> np.ndarray:
    """Convert *values* to a 1-D float array, validating finiteness."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_rate_matrix(matrix: np.ndarray, name: str = "rate matrix") -> np.ndarray:
    """Validate a square matrix of non-negative pairwise rates with a zero diagonal.

    Used for the interaction-rate matrix ``λ_ij`` of Section 2.1: rates must be
    finite, non-negative, and a process never "interacts with itself".
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(matrix < 0.0):
        raise ValueError(f"{name} must be non-negative")
    if np.any(np.diagonal(matrix) != 0.0):
        raise ValueError(f"{name} must have a zero diagonal (no self-interaction)")
    return matrix


def all_close(a, b, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)``, answered by an exact comparison
    first: exactly equal values are always close, and the comparison costs
    a fraction of ``allclose`` on the small arrays the model passes."""
    return bool((a == b).all()) or bool(np.allclose(a, b, atol=atol))


def check_symmetric_rates(matrix: np.ndarray, name: str = "rate matrix",
                          atol: float = 1e-12) -> np.ndarray:
    """Validate a symmetric interaction-rate matrix (``λ_ij = λ_ji``)."""
    matrix = check_rate_matrix(matrix, name=name)
    if not all_close(matrix, matrix.T, atol=atol):
        raise ValueError(f"{name} must be symmetric (λ_ij = λ_ji)")
    return matrix


def check_index(index: int, size: int, name: str = "index") -> int:
    """Validate an integer index in ``[0, size)`` and return it as ``int``."""
    index = int(index)
    if index < 0 or index >= size:
        raise ValueError(f"{name} must be in [0, {size}), got {index}")
    return index


def check_ordered(values: Sequence[float], name: str = "values") -> None:
    """Validate that *values* are non-decreasing."""
    arr = np.asarray(values, dtype=float)
    if arr.size >= 2 and np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} must be non-decreasing")
