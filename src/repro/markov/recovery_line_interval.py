"""High-level façade over the asynchronous recovery-block analysis.

:class:`RecoveryLineIntervalModel` bundles the quantities Section 2.3 derives —
the density/moments of the interval ``X`` between successive recovery lines and the
mean recovery-point counts ``E[L_i]`` — behind one object, choosing the full or the
lumped (symmetric) chain automatically and caching the expensive pieces.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.core.parameters import SystemParameters
from repro.markov.ctmc import PhaseType
from repro.markov.generator import build_generator, build_phase_type
from repro.markov.operators import check_backend_name, select_backend
from repro.markov.state_space import AsyncStateSpace

if TYPE_CHECKING:
    from repro.markov.montecarlo import SimulatedIntervals

__all__ = ["RecoveryLineIntervalModel"]


class RecoveryLineIntervalModel:
    """Analytic + Monte-Carlo model of the interval between recovery lines.

    Parameters
    ----------
    params:
        System parameters (``μ_i``, ``λ_ij``).
    prefer_simplified:
        Use the lumped chain of Figure 3 when the system is homogeneous; the full
        ``2^n``-state chain is used otherwise (or when False).  The lumped chain is
        the cheapest route for the large-``n`` symmetric sweeps of Figure 5.
    backend:
        Numeric backend for the full chain: ``"auto"`` (dense up to
        :data:`~repro.markov.operators.DENSE_STATE_LIMIT` transient states,
        sparse beyond — the sparse path keeps heterogeneous analyses feasible
        to n≈14 and beyond), ``"dense"`` or ``"sparse"`` to force one.  The
        lumped chain is always dense (it has only ``n + 2`` states).
    structure_cache:
        Assemble the full chain through the memoized
        :mod:`~repro.markov.structure_cache` (default), so a rates-only sweep
        of models pays the structural enumeration once.  The cached assembly
        is bit-identical to the legacy builders; disable only to measure or
        to pin that equality.
    """

    def __init__(self, params: SystemParameters, *,
                 prefer_simplified: bool = True,
                 backend: str = "auto",
                 structure_cache: bool = True) -> None:
        self.params = params
        self.prefer_simplified = bool(prefer_simplified)
        self.backend = check_backend_name(backend)
        self.structure_cache = bool(structure_cache)

    # ------------------------------------------------------------------ structure
    @cached_property
    def uses_simplified_chain(self) -> bool:
        """Whether the lumped symmetric chain is being used."""
        return self.prefer_simplified and self.params.is_symmetric() \
            and self.params.n >= 2

    @cached_property
    def analytic_backend(self) -> str:
        """Resolved numeric route: ``"lumped"``, ``"dense"`` or ``"sparse"``."""
        if self.uses_simplified_chain:
            return "lumped"
        return select_backend(AsyncStateSpace(self.params.n).n_transient,
                              self.backend)

    @cached_property
    def phase_type(self) -> PhaseType:
        """Phase-type distribution of ``X``."""
        if self.uses_simplified_chain:
            from repro.markov.simplified import SimplifiedChain
            lam = float(self.params.lam[0, 1]) if self.params.n >= 2 else 0.0
            chain = SimplifiedChain(n=self.params.n, mu=float(self.params.mu[0]),
                                    lam=lam)
            return chain.phase_type()
        return build_phase_type(self.params, backend=self.backend,
                                structure_cache=self.structure_cache)

    @cached_property
    def generator(self) -> np.ndarray:
        """Full *dense* generator matrix ``H`` (always the unlumped chain).

        Kept for small-``n`` inspection and ODE cross-checks; large state
        spaces should use :func:`repro.markov.generator.build_generator_sparse`
        instead of materialising ``(2^n + 1)²`` entries.
        """
        H, _space = build_generator(self.params)
        return H

    @cached_property
    def _counting_phase_type(self) -> PhaseType:
        """Full-chain phase type backing the occupancy-based counts.

        ``E[L_i]`` and ``q_i`` are functionals of the *full* chain's occupancy
        vector, so the lumped chain cannot serve here; a model running lumped
        builds (and caches) the full chain on demand, every other model reuses
        :attr:`phase_type` — and with it the cached factorisation and
        occupancy solve.
        """
        if not self.uses_simplified_chain:
            return self.phase_type
        return build_phase_type(self.params, backend=self.backend,
                                structure_cache=self.structure_cache)

    @property
    def n_states(self) -> int:
        """Number of states of the chain actually used for the analysis."""
        return self.phase_type.order + 1

    # ------------------------------------------------------------------ interval X
    def mean_interval(self) -> float:
        """``E[X]`` — mean interval between two successive recovery lines."""
        return self.phase_type.mean()

    def interval_variance(self) -> float:
        return self.phase_type.variance()

    def interval_std(self) -> float:
        return self.phase_type.std()

    def interval_moment(self, k: int) -> float:
        """Raw moment ``E[X^k]``."""
        return self.phase_type.moment(k)

    def pdf(self, times: Sequence[float] | float) -> np.ndarray | float:
        """Density ``f_X(t)`` (Figure 6)."""
        return self.phase_type.pdf(times)

    def cdf(self, times: Sequence[float] | float) -> np.ndarray | float:
        return self.phase_type.cdf(times)

    def survival(self, times: Sequence[float] | float) -> np.ndarray | float:
        return self.phase_type.sf(times)

    # ------------------------------------------------------------------ counts L_i
    def expected_rp_counts(self, counting: str = "interior") -> np.ndarray:
        """``E[L_i]`` for each process (see :mod:`repro.markov.split_chain`)."""
        from repro.markov.split_chain import expected_rp_counts
        return expected_rp_counts(self.params, counting=counting,
                                  phase_type=self._counting_phase_type)

    def expected_total_rp_count(self, counting: str = "interior") -> float:
        """``E[Σ_i L_i]`` — total states saved per interval (Table 1 bottom row)."""
        return float(self.expected_rp_counts(counting=counting).sum())

    def completion_probabilities(self) -> np.ndarray:
        """``q_i`` — probability the next line is completed by ``P_i``'s RP."""
        from repro.markov.split_chain import absorption_by_process
        return absorption_by_process(self.params,
                                     phase_type=self._counting_phase_type)

    # ------------------------------------------------------------------ simulation
    def simulate(self, n_intervals: int, seed: Optional[int] = None
                 ) -> SimulatedIntervals:
        """Monte-Carlo sample of the model (the paper's Table 1 methodology)."""
        from repro.markov.montecarlo import ModelSimulator
        return ModelSimulator(self.params, seed=seed).sample_intervals(n_intervals)

    def validation_report(self, n_intervals: int = 20_000,
                          seed: Optional[int] = None,
                          counting: str = "all") -> Dict[str, object]:
        """Compare analytic and simulated estimates side by side.

        Returns a dict with analytic/simulated means of ``X`` and ``L_i`` plus the
        relative errors; used by the validation experiment and its tests.
        """
        sim = self.simulate(n_intervals, seed=seed)
        analytic_x = self.mean_interval()
        analytic_l = self.expected_rp_counts(counting=counting)
        sim_x = sim.mean_interval()
        sim_l = sim.mean_rp_counts(counting=counting)
        return {
            "n_intervals": n_intervals,
            "counting": counting,
            "analytic_mean_X": analytic_x,
            "simulated_mean_X": sim_x,
            "relative_error_X": abs(sim_x - analytic_x) / analytic_x,
            "analytic_mean_L": analytic_l,
            "simulated_mean_L": sim_l,
            "relative_error_L": np.abs(sim_l - analytic_l) / np.maximum(analytic_l, 1e-12),
            "simulated_stderr_X": sim.interval_stderr(),
        }

    # ------------------------------------------------------------------ reporting
    def table1_row(self, counting: str = "all") -> Dict[str, float]:
        """The quantities of one Table 1 column for this parameter set."""
        counts = self.expected_rp_counts(counting=counting)
        row: Dict[str, float] = {"E[X]": self.mean_interval()}
        for i, value in enumerate(counts):
            row[f"E[L{i + 1}]"] = float(value)
        row["E[sum L]"] = float(counts.sum())
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "simplified" if self.uses_simplified_chain else "full"
        return (f"RecoveryLineIntervalModel({self.params.describe()}, chain={kind}, "
                f"backend={self.analytic_backend}, states={self.n_states})")
