"""Pre-canned workloads: the paper's parameter cases and richer scenarios.

The first two builders reproduce the exact parameter points of Table 1 and
Figure 6; the remaining ones are the domain scenarios used by the examples — a
homogeneous compute job, a producer/consumer pipeline, and a time-critical control
loop (the paper's motivation for rejecting long rollbacks in "time-critical tasks
in which a delay in system response beyond … the system deadline leads to a
catastrophic failure").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.parameters import SystemParameters

# The workload builders import the process and workload models where they
# build one, so the paper's parameter cases load neither.
if TYPE_CHECKING:
    from repro.workloads.spec import WorkloadSpec

__all__ = [
    "TABLE1_CASES",
    "FIGURE6_CASES",
    "paper_table1_case",
    "paper_figure6_case",
    "homogeneous_workload",
    "pipeline_workload",
    "realtime_control_workload",
    "spread_rates",
    "strategy_workload",
]

#: The five (μ, λ) cases of Table 1: ``(μ_1, μ_2, μ_3)`` and ``(λ_12, λ_23, λ_31)``.
TABLE1_CASES: Tuple[Tuple[Tuple[float, float, float], Tuple[float, float, float]], ...] = (
    ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    ((1.5, 1.0, 0.5), (1.0, 1.0, 1.0)),
    ((1.0, 1.0, 1.0), (1.5, 0.5, 1.0)),
    ((1.5, 1.0, 0.5), (1.5, 0.5, 1.0)),
    ((1.5, 1.0, 0.5), (0.5, 1.5, 1.0)),
)

#: The three density cases of Figure 6.
FIGURE6_CASES: Tuple[Tuple[Tuple[float, float, float], Tuple[float, float, float]], ...] = (
    ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
    ((0.6, 0.45, 0.45), (0.5, 0.5, 0.5)),
    ((0.6, 0.45, 0.45), (0.75, 0.75, 0.75)),
)


def paper_table1_case(case: int) -> SystemParameters:
    """System parameters of Table 1 column *case* (1-based, 1…5)."""
    if not (1 <= case <= len(TABLE1_CASES)):
        raise ValueError(f"Table 1 has cases 1..{len(TABLE1_CASES)}, got {case}")
    mu, lam = TABLE1_CASES[case - 1]
    return SystemParameters.three_process(mu, lam)


def paper_figure6_case(case: int) -> SystemParameters:
    """System parameters of Figure 6 curve *case* (1-based, 1…3)."""
    if not (1 <= case <= len(FIGURE6_CASES)):
        raise ValueError(f"Figure 6 has cases 1..{len(FIGURE6_CASES)}, got {case}")
    mu, lam = FIGURE6_CASES[case - 1]
    return SystemParameters.three_process(mu, lam)


def homogeneous_workload(n: int = 3, *, mu: float = 1.0, lam: float = 1.0,
                         work: float = 50.0, error_rate: float = 0.02,
                         checkpoint_cost: float = 0.02) -> WorkloadSpec:
    """A symmetric all-pairs workload (the paper's canonical setting)."""
    from repro.processes.communication import all_pairs_rates
    from repro.workloads.spec import FaultModel, WorkloadSpec
    params = SystemParameters(mu=[mu] * n, lam=all_pairs_rates(n, lam))
    return WorkloadSpec(params=params, work_per_process=work,
                        checkpoint_cost=checkpoint_cost,
                        faults=FaultModel(error_rate=error_rate))


def spread_rates(n: int, mu: float, spread: float = 1.0) -> np.ndarray:
    """Per-process rates spread geometrically between ``μ/spread`` and ``μ·spread``.

    The aggregate rate is kept at ``n·μ`` so that heterogeneity is compared at
    constant total checkpointing capacity — the transformation of the Section 3
    ``CL`` table, shared here so the sync-loss experiment and the declarative
    ``strategy`` system kind construct bit-identical rate vectors.
    ``spread = 1`` is the homogeneous case.
    """
    if spread <= 0.0:
        raise ValueError("heterogeneity factors must be positive")
    n = int(n)
    if spread == 1.0 or n == 1:
        return np.full(n, mu)
    rates = np.geomspace(mu / spread, mu * spread, n)
    rates *= (mu * n) / rates.sum()   # keep the same aggregate rate
    return rates


def strategy_workload(n: int, *, mu: float = 1.0, mu_spread: float = 1.0,
                      lam: float = 1.0, work: float = 25.0,
                      error_rate: float = 0.0, checkpoint_cost: float = 0.02,
                      restart_cost: float = 0.05,
                      failure_law: str = "exponential",
                      failure_shape: Optional[float] = None,
                      fault_model: Optional[dict] = None) -> WorkloadSpec:
    """The workload family behind the declarative ``strategy`` system kind.

    All-pairs interaction at rate *lam*, recovery-point rates spread by
    *mu_spread* (see :func:`spread_rates`), and the stated costs/fault rate.
    With the defaults this is exactly :func:`homogeneous_workload`'s shape, so
    the strategy-comparison scenario keeps its pre-facade workloads.

    *failure_law*/*failure_shape* select the fault interarrival law (mean
    ``1/error_rate``, exponential by default); *fault_model* is the optional
    correlated-fault block of the spec schema (``groups``,
    ``common_mode_rate``, ``propagation_probability``, ``cascade_depth``).
    """
    from repro.processes.communication import all_pairs_rates
    from repro.workloads.spec import FaultModel, WorkloadSpec
    params = SystemParameters(mu=spread_rates(n, mu, mu_spread),
                              lam=all_pairs_rates(n, lam))
    correlated = dict(fault_model or {})
    faults = FaultModel(
        error_rate=error_rate,
        interarrival_law=failure_law,
        interarrival_shape=failure_shape,
        common_mode_groups=tuple(tuple(int(p) for p in group)
                                 for group in correlated.get("groups", ())),
        common_mode_rate=float(correlated.get("common_mode_rate", 0.0)),
        propagation_probability=float(
            correlated.get("propagation_probability", 0.0)),
        cascade_depth=int(correlated.get("cascade_depth", 0)))
    return WorkloadSpec(params=params, work_per_process=work,
                        checkpoint_cost=checkpoint_cost,
                        restart_cost=restart_cost,
                        faults=faults)


def pipeline_workload(n: int = 4, *, mu: float = 1.0, lam: float = 2.0,
                      work: float = 40.0, error_rate: float = 0.03,
                      checkpoint_cost: float = 0.02) -> WorkloadSpec:
    """A producer/consumer pipeline: heavy neighbour traffic, classic domino risk."""
    from repro.processes.communication import producer_consumer_rates
    from repro.processes.program import RecoveryBlockSpec
    from repro.workloads.spec import FaultModel, WorkloadSpec
    params = SystemParameters(mu=[mu] * n, lam=producer_consumer_rates(n, lam))
    return WorkloadSpec(params=params, work_per_process=work,
                        checkpoint_cost=checkpoint_cost,
                        faults=FaultModel(error_rate=error_rate),
                        block_spec=RecoveryBlockSpec.with_alternates(2))


def realtime_control_workload(n: int = 3, *, cycle_rate: float = 2.0,
                              coupling: float = 1.5, work: float = 30.0,
                              error_rate: float = 0.05,
                              checkpoint_cost: float = 0.01,
                              deadline: Optional[float] = None) -> WorkloadSpec:
    """A time-critical control task (sensor / control-law / actuator processes).

    High checkpointing frequency (``cycle_rate``) and tight coupling; the paper's
    conclusion argues the asynchronous scheme is unacceptable here because the
    rollback distance is unbounded, which the strategy-comparison experiment makes
    measurable.  ``deadline`` is carried via ``max_sim_time`` scaling when given.
    """
    from repro.processes.communication import all_pairs_rates
    from repro.processes.program import RecoveryBlockSpec
    from repro.workloads.spec import FaultModel, WorkloadSpec
    params = SystemParameters(mu=[cycle_rate] * n,
                              lam=all_pairs_rates(n, coupling))
    max_time = 1e6 if deadline is None else max(deadline * 10.0, work * 10.0)
    return WorkloadSpec(params=params, work_per_process=work,
                        checkpoint_cost=checkpoint_cost,
                        faults=FaultModel(error_rate=error_rate,
                                          external_detection_probability=0.8),
                        block_spec=RecoveryBlockSpec.with_alternates(3),
                        max_sim_time=max_time)
