"""Continuous-time Markov-chain mathematics: phase-type distributions.

The interval ``X`` between successive recovery lines is the time to absorption of
the chain built in :mod:`repro.markov.generator`; absorption times of finite CTMCs
are *phase-type* distributed.  :class:`PhaseType` provides the density, CDF,
survival function and factorial moments used throughout the reproduction:

* density       ``f_X(t) = α · exp(T t) · t⁰`` with exit vector ``t⁰ = −T·1``
  (this is exactly the paper's ``f_X(t) = d/dt π_m(t)``),
* CDF           ``F_X(t) = 1 − α · exp(T t) · 1``,
* survival      ``S_X(t) = α · exp(T t) · 1`` (computed directly, *not* as
  ``1 − F`` — the subtraction cancels catastrophically in the deep tail),
* moments       ``E[X^k] = (−1)^k k! · α · T^{−k} · 1``.

``T`` may be a dense array or any ``scipy.sparse`` matrix; all numerics are
routed through the matching :class:`~repro.markov.operators.TransientOperator`
backend (dense ``expm``/LU versus sparse ``expm_multiply``/sparse-LU), so the
same :class:`PhaseType` object scales from the 3-state toy chains of the unit
tests to the ``2^14``-state heterogeneous recovery-line chains.

:func:`transient_distribution` additionally integrates the Chapman–Kolmogorov
equations ``dπ/dt = π H`` directly (the formulation the paper states); it serves as
an independent cross-check of the matrix-exponential path in the ablation bench.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence, Union

import numpy as np

from repro.markov.operators import (DenseTransientBlock, TransientOperator,
                                    as_operator)
from repro.util.linalg import issparse

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["PhaseType", "check_sub_generator", "transient_distribution"]

#: Largest order at which :meth:`PhaseType.sample` will densify a sparse ``T``
#: to build its per-state jump tables.
_SAMPLE_DENSIFY_LIMIT = 4096


class PhaseType:
    """Phase-type distribution ``PH(α, T)``.

    Parameters
    ----------
    alpha:
        Initial probability vector over the transient states (length ``p``).  A
        deficient vector (summing to less than 1) would put mass at zero; the
        recovery-line model always starts in a transient state so ``Σα = 1``.
    T:
        ``p × p`` sub-generator: non-positive diagonal, non-negative off-diagonal,
        row sums ≤ 0 with strict inequality for at least one reachable state
        (otherwise absorption would never happen).  Dense ``ndarray`` or any
        ``scipy.sparse`` matrix (stored as CSR); either is copied and checked.
        A :class:`~repro.markov.operators.DenseTransientBlock` — what the
        structure-cached generator assembly fills — is adopted as it is: its
        producer has checked it, and its matrix is built only when read.
    """

    def __init__(self, alpha: np.ndarray,
                 T: Union[np.ndarray, sparse.spmatrix,
                          DenseTransientBlock]) -> None:
        alpha = np.asarray(alpha, dtype=float).copy()
        if alpha.ndim != 1:
            raise ValueError("alpha must be a vector")
        if np.any(alpha < -1e-12) or abs(alpha.sum() - 1.0) > 1e-9:
            raise ValueError("alpha must be a probability vector")
        if isinstance(T, DenseTransientBlock):
            order = T.order
        elif issparse(T):
            from scipy import sparse
            T = sparse.csr_matrix(T, copy=True)
            if T.shape[0] != T.shape[1]:
                raise ValueError("T must be square")
            coo = T.tocoo()
            off = coo.data[coo.row != coo.col]
            check_sub_generator(bool(off.size) and np.min(off) < -1e-9,
                                T.diagonal(),
                                np.asarray(T.sum(axis=1)).ravel())
            order = T.shape[0]
        else:
            T = np.asarray(T, dtype=float).copy()
            if T.ndim != 2 or T.shape[0] != T.shape[1]:
                raise ValueError("T must be square")
            # Off-diagonal sign check without materialising T - diag(T): flag
            # the negative entries and discount the (legitimately negative)
            # diagonal.
            negative = T < -1e-9
            np.fill_diagonal(negative, False)
            check_sub_generator(bool(np.any(negative)), np.diagonal(T),
                                T.sum(axis=1))
            T.setflags(write=False)
            order = T.shape[0]
        if order != alpha.shape[0]:
            raise ValueError("alpha and T have mismatched sizes")
        alpha.setflags(write=False)
        self.alpha = alpha
        self._T = T

    @property
    def T(self) -> Union[np.ndarray, sparse.csr_matrix]:
        """The sub-generator: CSR, or a read-only C-ordered array (built on
        first read when ``T`` came as a block)."""
        T = self._T
        return T.T if isinstance(T, DenseTransientBlock) else T

    # ------------------------------------------------------------------ basics
    @property
    def order(self) -> int:
        """Number of transient phases."""
        return int(self.alpha.shape[0])

    @property
    def is_sparse(self) -> bool:
        """Whether ``T`` is stored (and evaluated) sparsely."""
        return issparse(self._T)

    @cached_property
    def operator(self) -> TransientOperator:
        """The numeric backend evaluating everything against ``T``.

        Chosen strictly by storage format: a sparse ``T`` gets the
        Krylov/sparse-LU backend, a dense ``T`` the ``expm``/LU ground-truth
        backend — never by size, so a caller who forced ``backend="dense"`` in
        :func:`~repro.markov.generator.build_phase_type` really measures the
        dense numerics.
        """
        return as_operator(self._T,
                           backend="sparse" if self.is_sparse else "dense")

    @property
    def backend(self) -> str:
        """Name of the numeric backend (``"dense"`` / ``"sparse"``)."""
        return self.operator.name

    @cached_property
    def exit_vector(self) -> np.ndarray:
        """Exit-rate vector ``t⁰ = −T·1`` (rate of absorption from each phase)."""
        return self.operator.exit_vector()

    # ------------------------------------------------------------------ densities
    def _expm_states(self, times: np.ndarray) -> np.ndarray:
        """Row vectors ``α·exp(T t)`` for each requested time.

        Dense backend: uniform grids are propagated with a single cached step
        matrix, arbitrary grids fall back to one matrix exponential per time.
        Sparse backend: Krylov propagation (``expm_multiply``) over the grid —
        no matrix exponential is ever materialised.
        """
        flat = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(flat < 0.0):
            raise ValueError("times must be non-negative")
        return self.operator.expm_states(self.alpha, flat)

    def pdf(self, times: Iterable[float] | float) -> np.ndarray | float:
        """Density ``f_X(t)`` evaluated at *times*."""
        scalar = np.isscalar(times)
        states = self._expm_states(np.atleast_1d(np.asarray(times, dtype=float)))
        values = states @ self.exit_vector
        return float(values[0]) if scalar else values

    def cdf(self, times: Iterable[float] | float) -> np.ndarray | float:
        """Distribution function ``P(X ≤ t)``."""
        scalar = np.isscalar(times)
        states = self._expm_states(np.atleast_1d(np.asarray(times, dtype=float)))
        values = 1.0 - states.sum(axis=1)
        return float(values[0]) if scalar else values

    def sf(self, times: Iterable[float] | float) -> np.ndarray | float:
        """Survival function ``P(X > t)``, accurate deep into the tail.

        Computed directly as ``α·exp(T t)·1`` — the remaining transient mass —
        rather than ``1 − cdf``: the latter cancels to 0 (or slips negative)
        once the survival drops below the double-precision epsilon of 1,
        whereas the direct sum stays accurate down to the underflow threshold.
        """
        scalar = np.isscalar(times)
        states = self._expm_states(np.atleast_1d(np.asarray(times, dtype=float)))
        values = states.sum(axis=1)
        return float(values[0]) if scalar else values

    # ------------------------------------------------------------------ moments
    def moment(self, k: int = 1) -> float:
        """Raw moment ``E[X^k] = (−1)^k k! α T^{−k} 1``.

        Each power is one (cached-factorisation) solve against ``T`` — dense LU
        for the dense backend, sparse LU or preconditioned GMRES for the
        sparse one.
        """
        if k < 1:
            raise ValueError("moment order must be >= 1")
        # The solved vectors T^{-j}·1 are shared across moment orders (the
        # j-th is the input of the (j+1)-th solve), so E[X] followed by
        # Var[X] pays two solves, not three; a cached vector is the *same*
        # solve output it replaces, never a numeric shortcut.
        vecs = self.__dict__.get("_moment_vecs")
        if vecs is None:
            vecs = self._moment_vecs = [np.ones(self.order)]
        while len(vecs) <= k:
            vecs.append(self.operator.solve(vecs[-1]))
        sign = -1.0 if k % 2 else 1.0
        return float(sign * _factorial(k) * (self.alpha @ vecs[k]))

    def mean(self) -> float:
        """``E[X]`` — the paper's mean interval between successive recovery lines."""
        return self.moment(1)

    def variance(self) -> float:
        m1 = self.moment(1)
        return self.moment(2) - m1 * m1

    def std(self) -> float:
        return float(np.sqrt(max(self.variance(), 0.0)))

    @cached_property
    def _occupancy_vector(self) -> np.ndarray:
        vector = self.operator.occupancy(self.alpha)
        vector.setflags(write=False)
        return vector

    def occupancy(self) -> np.ndarray:
        """``τ = α(−T)^{-1}`` — expected time in each phase before absorption.

        ``τ.sum()`` is ``E[X]``; the split-chain recovery-point counts are
        linear functionals of this vector.  Cached: repeated callers
        (``E[L_i]``, ``q_i``) share one transpose solve.
        """
        return self._occupancy_vector

    # ------------------------------------------------------------------ sampling
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *size* absorption times by simulating the underlying jump chain."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if self.is_sparse:
            if self.order > _SAMPLE_DENSIFY_LIMIT:
                raise RuntimeError(
                    f"jump-chain sampling densifies T; order {self.order} exceeds "
                    f"the {_SAMPLE_DENSIFY_LIMIT}-state limit — sample the model "
                    "with repro.markov.montecarlo.ModelSimulator instead")
            T = self.T.toarray()
        else:
            T = self.T
        exit_rates = self.exit_vector
        diag = -np.diagonal(T)
        out = np.empty(size)
        # Pre-compute per-state jump distributions (to transient states + exit).
        jump_probs = []
        for s in range(self.order):
            total = diag[s]
            if total <= 0.0:
                jump_probs.append((np.zeros(self.order), 1.0))
                continue
            probs = np.maximum(T[s].copy(), 0.0)
            probs[s] = 0.0
            jump_probs.append((probs / total, exit_rates[s] / total))
        for i in range(size):
            t = 0.0
            state = int(rng.choice(self.order, p=self.alpha))
            while True:
                rate = diag[state]
                if rate <= 0.0:
                    raise RuntimeError("reached a transient state with no exit rate")
                t += rng.exponential(1.0 / rate)
                probs, p_exit = jump_probs[state]
                if rng.random() < p_exit:
                    break
                state = int(rng.choice(self.order, p=probs / max(probs.sum(), 1e-300)))
            out[i] = t
        return out


def check_sub_generator(negative_off_diagonal: bool, diagonal: np.ndarray,
                        row_sums: np.ndarray) -> None:
    """Raise ``ValueError`` unless these describe a sub-generator ``T``:
    no negative off-diagonal entry, a non-positive diagonal and
    non-positive row sums (all up to round-off)."""
    if negative_off_diagonal:
        raise ValueError("off-diagonal entries of T must be non-negative")
    if np.any(diagonal > 1e-9):
        raise ValueError("diagonal entries of T must be non-positive")
    if np.any(row_sums > 1e-7):
        raise ValueError("row sums of T must be non-positive")


def _factorial(k: int) -> float:
    out = 1.0
    for i in range(2, k + 1):
        out *= i
    return out


def transient_distribution(H: Union[np.ndarray, sparse.spmatrix],
                           pi0: Sequence[float],
                           times: Sequence[float], *, rtol: float = 1e-9,
                           atol: float = 1e-12) -> np.ndarray:
    """Integrate the Chapman–Kolmogorov equations ``dπ/dt = π H``.

    Parameters
    ----------
    H:
        Full generator (absorbing rows included), dense or sparse.
    pi0:
        Initial distribution over all states.
    times:
        Non-decreasing evaluation times (the first may be 0).

    Returns
    -------
    Array of shape ``(len(times), n_states)`` with the state distribution at each
    requested time.  This is the formulation the paper writes down explicitly; the
    phase-type machinery above is the closed-form equivalent.
    """
    if issparse(H):
        Ht = H.T.tocsr()
    else:
        H = np.asarray(H, dtype=float)
        Ht = H.T
    pi0 = np.asarray(pi0, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    if times.size == 0:
        return np.empty((0, Ht.shape[0]))

    def rhs(_t: float, pi: np.ndarray) -> np.ndarray:
        return Ht @ pi

    # Imported here: scipy.integrate costs more than the rest of the module.
    from scipy.integrate import solve_ivp

    t_span = (0.0, float(times[-1]) if times[-1] > 0 else 1e-12)
    solution = solve_ivp(rhs, t_span, pi0, t_eval=np.maximum(times, 0.0),
                         method="LSODA", rtol=rtol, atol=atol)
    if not solution.success:  # pragma: no cover - defensive
        raise RuntimeError(f"ODE integration failed: {solution.message}")
    return solution.y.T
