"""Correlated common-mode faults cascading through the recovery schemes.

The paper's fault model is independent Poisson errors per process; its
Section 4 contamination discussion, however, is all about how one error
spreads.  This experiment closes that gap at the workload level: a common-mode
event periodically strikes a whole group of processes at once, and each strike
may then cascade outward along interaction edges with a per-edge propagation
probability (``fault_model`` block of a ``strategy``
:class:`~repro.api.StudySpec`, executed by
:func:`repro.faults.propagation.expand_cascade` inside the recovery runtimes).

The registered scenario sweeps the propagation probability for every recovery
scheme on an otherwise identical workload and reports makespan, rollback count
and lost work — how quickly each scheme's guarantees erode as faults stop
being independent.  Seeds are shared across the sweep (common random numbers),
so the scheme-vs-scheme and probability-vs-probability deltas are paired.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["cascading_faults_scenario"]

METRICS = ("makespan", "rollbacks", "lost_work")


def _result(replications: int) -> ExperimentResult:
    return ExperimentResult(
        name="cascading_faults",
        paper_reference=("Section 4 contamination discussion, extended to "
                         "correlated fault arrivals"),
        columns=[],
        notes=(f"Averages over {replications} replications; rows sweep the "
               "per-edge cascade propagation probability p of a common-mode "
               "fault group, columns compare the recovery schemes on the "
               "same seeds."),
    )


@scenario("cascading_faults",
          description="Common-mode fault groups cascading across the schemes",
          paper_reference=("Section 4 contamination discussion, extended to "
                           "correlated fault arrivals"),
          default_reps=5, renderer="cascading_faults")
def cascading_faults_scenario(ctx: ExecutionContext, *,
                              n: int = 4, mu: float = 1.0, lam: float = 0.5,
                              work: float = 25.0, error_rate: float = 0.02,
                              sync_interval: float = 2.0,
                              common_mode_rate: float = 0.05,
                              cascade_depth: int = 2,
                              propagation: Sequence[float] = (0.0, 0.25, 0.5,
                                                              0.75, 1.0),
                              schemes: Sequence[str] = ("asynchronous",
                                                        "synchronized",
                                                        "pseudo")
                              ) -> ExperimentResult:
    """Sweep cascade propagation probability × recovery scheme.

    Every cell shares the workload axes; the ``fault_model`` block adds one
    common-mode group over the first half of the processes, struck at
    ``common_mode_rate``, cascading up to ``cascade_depth`` hops with the
    row's propagation probability.  ``p = 0`` keeps the strikes correlated
    but contained to the group — the cascade-free baseline.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    replications = ctx.reps_or(5)
    group = list(range(max(2, n // 2)))
    specs = [
        StudySpec(
            system=SystemSpec.strategy(
                str(scheme), n, mu=mu, lam=lam, work=work,
                error_rate=error_rate, sync_interval=sync_interval,
                fault_model={"groups": [group],
                             "common_mode_rate": common_mode_rate,
                             "propagation_probability": float(p),
                             "cascade_depth": cascade_depth}),
            metrics=METRICS + ("completed",),
            reps=replications)
        for p in propagation for scheme in schemes
    ]
    evaluations = evaluate_in_context(ctx, specs, method="strategy")
    result = _result(replications)
    result.columns = [f"{metric} {scheme}"
                      for metric in METRICS for scheme in schemes]
    by_cell = iter(evaluations)
    for p in propagation:
        row = {}
        for scheme in schemes:
            evaluation = next(by_cell)
            for metric in METRICS:
                row[f"{metric} {scheme}"] = evaluation.metrics[metric]
        result.add_row(f"p={float(p):g}", **row)
    return result
