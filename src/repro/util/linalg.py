"""Linear-algebra helpers for Markov-chain analysis.

Small, well-tested wrappers around numpy/scipy used by :mod:`repro.markov`:
validation of generator matrices, embedding of a CTMC into a DTMC (uniformisation),
and fundamental-matrix computations for absorbing chains.  ``scipy.sparse`` is
imported only where a sparse matrix is handled: none can exist before it is
(see :func:`issparse`).
"""

from __future__ import annotations

import sys
import warnings
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

from repro.util.blas import pin_blas_threads

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "issparse",
    "is_generator_matrix",
    "uniformization_rate",
    "embed_dtmc",
    "solve_linear",
    "expected_visits_absorbing",
    "absorption_probabilities",
    "fundamental_matrix",
]


def issparse(A: object) -> bool:
    """``scipy.sparse.issparse`` without importing scipy: before
    ``scipy.sparse`` is imported no sparse matrix can exist."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


def is_generator_matrix(Q: np.ndarray, atol: float = 1e-9) -> bool:
    """Return True when ``Q`` is a valid CTMC generator.

    A generator has non-negative off-diagonal entries, non-positive diagonal entries
    and row sums equal to zero (within *atol*).
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        return False
    off = Q - np.diag(np.diagonal(Q))
    if np.any(off < -atol):
        return False
    if np.any(np.diagonal(Q) > atol):
        return False
    return bool(np.allclose(Q.sum(axis=1), 0.0, atol=atol))


def uniformization_rate(Q: np.ndarray, margin: float = 0.0) -> float:
    """Return a uniformisation constant ``G >= max_i |Q_ii|``.

    The paper's discrete chain :math:`Y_d` (Section 2.3) is exactly the uniformised
    chain with ``G = Σ_{i<j} λ_ij + Σ_k μ_k``; a caller may pass that value directly
    instead, but this helper computes the minimal admissible constant from ``Q``.
    """
    Q = np.asarray(Q, dtype=float)
    rate = float(np.max(-np.diagonal(Q)))
    if rate <= 0.0:
        raise ValueError("generator has no transitions; cannot uniformise")
    return rate * (1.0 + margin)


def embed_dtmc(Q: np.ndarray, rate: float | None = None) -> Tuple[np.ndarray, float]:
    """Uniformise generator ``Q`` into a DTMC transition matrix.

    Returns ``(P, G)`` with ``P = I + Q / G``.  When *rate* is None the minimal
    uniformisation constant is used.
    """
    Q = np.asarray(Q, dtype=float)
    if not is_generator_matrix(Q):
        raise ValueError("Q is not a valid CTMC generator matrix")
    G = uniformization_rate(Q) if rate is None else float(rate)
    if G < np.max(-np.diagonal(Q)) - 1e-12:
        raise ValueError("uniformisation rate is smaller than the fastest exit rate")
    P = np.eye(Q.shape[0]) + Q / G
    # Clean tiny negative round-off.
    P[P < 0.0] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    return P, G


def _condition_context(A: np.ndarray) -> str:
    """Condition-number context for the singular-fallback warning.

    The 2-norm condition number is only computed for systems small enough that
    the SVD is negligible next to the failed solve itself.
    """
    context = f"shape {A.shape[0]}x{A.shape[1]}"
    if A.shape[0] <= 2048:
        try:
            cond = np.linalg.cond(A)
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate input
            return context
        context += f", cond={cond:.3e}"
    return context


def solve_linear(A: Union[np.ndarray, sparse.spmatrix],
                 b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` (dense or sparse ``A``).

    Singular systems fall back to a least-squares solution; because a singular
    matrix here almost always means a malformed generator (an unreachable or
    non-absorbing state), the fallback emits a :class:`RuntimeWarning` with the
    condition context instead of silently returning the least-squares answer.
    """
    b = np.asarray(b, dtype=float)
    if issparse(A):
        from scipy.sparse import linalg as spla
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", spla.MatrixRankWarning)
                return spla.spsolve(A.tocsc(), b)
        except (RuntimeError, spla.MatrixRankWarning):
            # Singular sparse system: densify and take the dense fallback path
            # below (which warns with the condition context).
            A = A.toarray()
    A = np.asarray(A, dtype=float)
    pin_blas_threads()
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        warnings.warn(
            "solve_linear: matrix is singular to working precision "
            f"({_condition_context(A)}); falling back to a least-squares "
            "solution — check the generator for unreachable or non-absorbing "
            "states", RuntimeWarning, stacklevel=2)
        return np.linalg.lstsq(A, b, rcond=None)[0]


def fundamental_matrix(P_transient: np.ndarray) -> np.ndarray:
    """Fundamental matrix ``N = (I - T)^{-1}`` of an absorbing DTMC.

    ``P_transient`` is the transient-to-transient block ``T``.  Entry ``N[s, u]`` is
    the expected number of visits to transient state ``u`` before absorption when
    starting in ``s`` (counting the initial occupancy of ``s``).
    """
    if issparse(P_transient):
        from scipy import sparse
        from scipy.sparse import linalg as spla
        n = P_transient.shape[0]
        if P_transient.shape[1] != n:
            raise ValueError("transient block must be square")
        lu = spla.splu((sparse.identity(n, format="csc") - P_transient).tocsc())
        return lu.solve(np.eye(n))
    T = np.asarray(P_transient, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("transient block must be square")
    identity = np.eye(T.shape[0])
    pin_blas_threads()
    return np.linalg.solve(identity - T, identity)


def expected_visits_absorbing(P_transient: np.ndarray, start: int) -> np.ndarray:
    """Expected visit counts to each transient state before absorption.

    Equivalent to the row of the fundamental matrix for *start*, computed without
    forming the whole inverse.
    """
    if issparse(P_transient):
        from scipy import sparse
        n = P_transient.shape[0]
        system = sparse.identity(n, format="csr") - P_transient.T
    else:
        T = np.asarray(P_transient, dtype=float)
        n = T.shape[0]
        system = np.eye(n) - T.T
    if start < 0 or start >= n:
        raise ValueError(f"start state {start} out of range [0, {n})")
    e = np.zeros(n)
    e[start] = 1.0
    # visits v satisfies v = e + v T  =>  v (I - T) = e  =>  (I - T)^T v^T = e^T
    return solve_linear(system, e)


def absorption_probabilities(P_transient: np.ndarray,
                             P_to_absorbing: np.ndarray,
                             start: int) -> np.ndarray:
    """Probability of being absorbed in each absorbing state, starting from *start*.

    ``P_to_absorbing`` is the transient-to-absorbing block ``R``; the result is the
    *start* row of ``N R``.
    """
    visits = expected_visits_absorbing(P_transient, start)
    R = np.asarray(P_to_absorbing, dtype=float)
    if R.shape[0] != visits.shape[0]:
        raise ValueError("transient and absorbing blocks have mismatched sizes")
    return visits @ R
