"""Numerical integration helpers used by the analytic models.

The synchronized-loss formula of Section 3 and several moment checks integrate
functions of the form ``1 - G(t)`` over ``[0, ∞)``; the helpers here wrap
:func:`scipy.integrate.quad` with sensible defaults and provide cumulative
trapezoid integration for empirical densities.  :mod:`scipy.integrate` (which
loads ``scipy.special`` and ``scipy.optimize``) is imported inside the helpers
that call it, so importing this module costs numpy alone.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["adaptive_quad", "tail_integral", "trapezoid_cumulative", "simpson"]


def adaptive_quad(func: Callable[[float], float], lower: float, upper: float,
                  *, rtol: float = 1e-9, atol: float = 1e-12,
                  limit: int = 200) -> float:
    """Integrate *func* over ``[lower, upper]`` with adaptive quadrature.

    Parameters
    ----------
    func:
        Scalar integrand.
    lower, upper:
        Integration bounds.  ``upper`` may be ``numpy.inf``.
    rtol, atol:
        Requested relative/absolute tolerances.
    limit:
        Maximum number of subintervals handed to :func:`scipy.integrate.quad`.
    """
    from scipy import integrate

    value, _err = integrate.quad(func, lower, upper, epsrel=rtol, epsabs=atol,
                                 limit=limit)
    return float(value)


def tail_integral(survival: Callable[[float], float], *, rtol: float = 1e-9,
                  upper: float = np.inf) -> float:
    """Integrate a survival function ``P(T > t)`` over ``[0, upper)``.

    For a non-negative random variable ``T`` this equals ``E[min(T, upper)]`` and,
    with ``upper=inf``, simply ``E[T]`` — the identity the paper uses to express the
    expected synchronization wait ``E[Z] = ∫ (1 - G(t)) dt``.
    """
    return adaptive_quad(survival, 0.0, upper, rtol=rtol)


def trapezoid_cumulative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of samples ``y`` over grid ``x``.

    Returns an array of the same length as ``x`` whose first element is 0.  Useful
    for turning a sampled density :math:`f_X(t)` into a CDF.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x.size < 2:
        return np.zeros_like(x)
    increments = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return np.concatenate(([0.0], np.cumsum(increments)))


def simpson(x: np.ndarray, y: np.ndarray) -> float:
    """Composite Simpson integral of sampled values (falls back to trapezoid)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    if x.size < 3:
        return float(np.trapezoid(y, x))
    from scipy import integrate

    return float(integrate.simpson(y, x=x))
