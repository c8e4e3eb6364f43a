"""The stochastic system model of Section 2.1.

A :class:`SystemParameters` instance bundles the recovery-point establishment rates
``μ_i`` (Poisson, assumption 5 of the paper) and the pairwise interaction rates
``λ_ij`` (exponential inter-interaction times, assumption 3).  It is consumed by the
Markov analytic models, the Monte-Carlo model simulator and the full discrete-event
workloads, guaranteeing that all three describe *the same* system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.util.validation import (all_close, as_float_array, check_positive,
                                   check_symmetric_rates)

__all__ = ["SystemParameters"]


@dataclass(frozen=True)
class SystemParameters:
    """Rates describing a set of cooperating concurrent processes.

    Attributes
    ----------
    mu:
        Length-``n`` array; ``mu[i]`` is the Poisson rate at which process ``P_i``
        establishes recovery points.
    lam:
        ``n × n`` symmetric matrix with zero diagonal; ``lam[i, j]`` is the rate of
        interactions between ``P_i`` and ``P_j`` (the paper's ``λ_ij = λ_ji``).
    """

    mu: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        mu = as_float_array(self.mu, name="mu")
        if np.any(mu <= 0.0):
            raise ValueError("all recovery-point rates μ_i must be strictly positive")
        lam = check_symmetric_rates(np.asarray(self.lam, dtype=float), name="lam")
        if lam.shape[0] != mu.shape[0]:
            raise ValueError(
                f"mu has {mu.shape[0]} processes but lam is {lam.shape[0]}×{lam.shape[1]}")
        mu.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)

    # ------------------------------------------------------------------ factories
    @classmethod
    def symmetric(cls, n: int, mu: float, lam: float) -> "SystemParameters":
        """Homogeneous system: ``μ_i = mu`` and ``λ_ij = lam`` for every pair."""
        n = int(n)
        if n < 1:
            raise ValueError("need at least one process")
        check_positive(mu, "mu")
        if lam < 0.0:
            raise ValueError("lam must be non-negative")
        matrix = np.full((n, n), float(lam))
        np.fill_diagonal(matrix, 0.0)
        return cls(mu=np.full(n, float(mu)), lam=matrix)

    @classmethod
    def from_pair_rates(cls, mu: Sequence[float],
                        pair_rates: Iterable[Tuple[int, int, float]]
                        ) -> "SystemParameters":
        """Build from per-process ``μ`` and an iterable of ``(i, j, λ_ij)`` triples.

        Unlisted pairs get rate 0.  This is the convenient way to express the
        three-process cases of Table 1 where the rates are given as
        ``(λ_12, λ_23, λ_31)``.
        """
        mu_arr = as_float_array(mu, name="mu")
        n = mu_arr.shape[0]
        matrix = np.zeros((n, n))
        for i, j, rate in pair_rates:
            if i == j:
                raise ValueError("pair rates must connect two distinct processes")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
            matrix[i, j] = matrix[j, i] = float(rate)
        return cls(mu=mu_arr, lam=matrix)

    @classmethod
    def three_process(cls, mu: Sequence[float],
                      lam_12_23_31: Sequence[float]) -> "SystemParameters":
        """The paper's three-process parameterisation ``(λ_12, λ_23, λ_31)``."""
        mu = list(mu)
        lam = list(lam_12_23_31)
        if len(mu) != 3 or len(lam) != 3:
            raise ValueError("three_process requires exactly three μ and three λ values")
        return cls.from_pair_rates(mu, [(0, 1, lam[0]), (1, 2, lam[1]), (2, 0, lam[2])])

    @classmethod
    def heterogeneous(cls, n: int, *, mu_base: float = 1.0,
                      mu_gradient: float = 1.0, lam_base: float = 0.5,
                      locality: float = 1.0) -> "SystemParameters":
        """Build the non-exchangeable parameter family of the heterogeneous sweep
        (the ``heterogeneous`` system kind of a StudySpec).

        ``μ_i`` ramps geometrically from ``mu_base`` (process 0) to
        ``mu_base · mu_gradient`` (process n−1); ``λ_ij = lam_base / (1 +
        locality·|i−j|)`` decays with process distance (a line-topology locality
        model).  ``mu_gradient = 1`` and ``locality = 0`` recover the symmetric
        system, which is the cross-check used in tests.
        """
        if n < 1:
            raise ValueError("need at least one process")
        if mu_gradient <= 0.0:
            raise ValueError("mu_gradient must be strictly positive")
        if locality < 0.0:
            raise ValueError("locality must be non-negative")
        exponents = np.arange(n) / max(n - 1, 1)
        mu = mu_base * np.power(mu_gradient, exponents)
        idx = np.arange(n)
        distance = np.abs(idx[:, None] - idx[None, :])
        lam = lam_base / (1.0 + locality * distance)
        np.fill_diagonal(lam, 0.0)
        return cls(mu=mu, lam=lam)

    # ------------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        """Number of cooperating processes."""
        return int(self.mu.shape[0])

    @property
    def total_rp_rate(self) -> float:
        """``Σ_k μ_k`` — the aggregate recovery-point establishment rate."""
        return float(self.mu.sum())

    @property
    def total_interaction_rate(self) -> float:
        """``Σ_{i<j} λ_ij`` — aggregate rate of pairwise interactions."""
        return float(np.triu(self.lam, k=1).sum())

    @property
    def rho(self) -> float:
        """Relative communication density ``ρ = (Σ_{i≠j} λ_ij) / (Σ_k μ_k)``.

        This matches the caption of Figure 5 (``ρ = 2 Σ_{i<j} λ / Σ μ_k``): the
        numerator counts each unordered pair twice.
        """
        return 2.0 * self.total_interaction_rate / self.total_rp_rate

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """All unordered pairs ``(i, j)`` with ``i < j`` and ``λ_ij > 0``."""
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.lam[i, j] > 0.0]

    def pair_rate(self, i: int, j: int) -> float:
        """Interaction rate of the unordered pair ``{i, j}``."""
        if i == j:
            raise ValueError("no self-interaction rate")
        return float(self.lam[i, j])

    def interaction_rate_of(self, i: int) -> float:
        """Total interaction rate seen by process ``i``: ``Σ_j λ_ij``."""
        return float(self.lam[i].sum())

    def uniformization_constant(self) -> float:
        """The paper's normalisation factor ``G = Σ_{i<j} λ_ij + Σ_k μ_k``."""
        return self.total_interaction_rate + self.total_rp_rate

    def is_symmetric(self, atol: float = 1e-12) -> bool:
        """True when all ``μ_i`` are equal and all off-diagonal ``λ_ij`` are equal."""
        if not all_close(self.mu, self.mu[0], atol=atol):
            return False
        if self.n < 2:
            return True
        off = self.lam[~np.eye(self.n, dtype=bool)]
        return all_close(off, off[0], atol=atol)

    def scaled(self, factor: float) -> "SystemParameters":
        """Return parameters with every rate multiplied by *factor* (time rescaling)."""
        check_positive(factor, "factor")
        return SystemParameters(mu=self.mu * factor, lam=self.lam * factor)

    def with_rho(self, rho: float) -> "SystemParameters":
        """Return parameters whose λ matrix is rescaled to achieve density *rho*.

        The μ values are kept; only the interaction rates are scaled.  Raises when
        the system has no interacting pair.
        """
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        current = self.rho
        if current == 0.0:
            if rho == 0.0:
                return self
            raise ValueError("cannot rescale a system with zero interaction rate")
        return SystemParameters(mu=self.mu, lam=self.lam * (rho / current))

    def describe(self) -> str:
        """One-line description used by the experiment harness."""
        mu = ", ".join(f"{m:g}" for m in self.mu)
        pairs = ", ".join(f"λ_{i + 1}{j + 1}={self.lam[i, j]:g}"
                          for i, j in self.pairs)
        return f"n={self.n}; μ=({mu}); {pairs if pairs else 'no interactions'}; ρ={self.rho:.3f}"
