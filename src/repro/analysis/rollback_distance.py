"""Rollback-distance estimates for asynchronous recovery blocks.

The paper is careful to note (Section 5) that the interval ``X`` between two
successive recovery lines is an *inner bound* for the real rollback distance: when
an error is detected, the system must retreat at least to the most recent recovery
line, and how much computation that discards depends on where within the current
inter-line interval the failure strikes.

:class:`AsynchronousRollbackModel` packages the bound and two refinements:

* ``expected_distance_lower_bound`` — ``E[X]`` itself (the paper's proxy);
* ``expected_distance_inspection_paradox`` — the mean age of the renewal interval
  in progress at a random failure instant, ``E[X²]/(2·E[X])``, which is the proper
  estimate when failures arrive independently of the checkpointing process (PASTA);
* Monte-Carlo estimation against the model simulator for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.parameters import SystemParameters

if TYPE_CHECKING:  # the chain stack loads when a model is built
    from repro.markov.recovery_line_interval import RecoveryLineIntervalModel

__all__ = ["AsynchronousRollbackModel"]


@dataclass
class AsynchronousRollbackModel:
    """Rollback-distance analysis of the asynchronous scheme."""

    params: SystemParameters
    _model: Optional[RecoveryLineIntervalModel] = None

    def __post_init__(self) -> None:
        if self._model is None:
            from repro.markov.recovery_line_interval import \
                RecoveryLineIntervalModel
            self._model = RecoveryLineIntervalModel(self.params)

    @property
    def interval_model(self) -> RecoveryLineIntervalModel:
        assert self._model is not None
        return self._model

    # ------------------------------------------------------------------ bounds
    def expected_interval(self) -> float:
        """``E[X]`` — mean interval between successive recovery lines."""
        return self.interval_model.mean_interval()

    def expected_distance_lower_bound(self) -> float:
        """The paper's proxy: the rollback distance is at least the distance to the
        previous recovery line, whose scale is ``E[X]``."""
        return self.expected_interval()

    def expected_distance_inspection_paradox(self) -> float:
        """Mean *age* of the inter-line interval at a random failure instant.

        For a stationary renewal process with inter-event distribution ``X``, the
        expected backward recurrence time seen by a Poisson failure is
        ``E[X²] / (2 E[X])`` — larger than ``E[X]/2`` because failures are more
        likely to land in long intervals.
        """
        m1 = self.interval_model.interval_moment(1)
        m2 = self.interval_model.interval_moment(2)
        return m2 / (2.0 * m1)

    # ------------------------------------------------------------------ simulation
    def simulate_distance(self, n_failures: int = 2000,
                          seed: Optional[int] = None) -> Dict[str, float]:
        """Monte-Carlo estimate of the distance back to the last recovery line.

        Failures are dropped uniformly at random *in time* over a long simulated
        model trajectory; for each failure the distance to the most recent
        recovery-line formation is recorded.
        """
        if n_failures < 1:
            raise ValueError("need at least one failure")
        rng = np.random.default_rng(seed)
        from repro.markov.montecarlo import ModelSimulator

        sim = ModelSimulator(self.params, seed=None if seed is None else seed + 1)
        intervals = sim.sample_intervals(max(n_failures, 200)).lengths
        # Build the renewal timeline and sample failure instants uniformly on it.
        boundaries = np.concatenate(([0.0], np.cumsum(intervals)))
        horizon = boundaries[-1]
        failure_times = rng.uniform(0.0, horizon, size=n_failures)
        last_line = boundaries[np.searchsorted(boundaries, failure_times, side="right") - 1]
        distances = failure_times - last_line
        return {
            "mean_distance": float(distances.mean()),
            "p95_distance": float(np.quantile(distances, 0.95)),
            "analytic_inspection_paradox": self.expected_distance_inspection_paradox(),
            "analytic_mean_interval": self.expected_interval(),
        }

    def report(self) -> Dict[str, float]:
        return {
            "E[X]": self.expected_interval(),
            "std[X]": self.interval_model.interval_std(),
            "E[distance] (age)": self.expected_distance_inspection_paradox(),
            "E[saved states per interval]":
                self.interval_model.expected_total_rp_count(counting="all"),
        }
