"""Ablation experiments for two modelling choices of the paper.

* **Detector ablation** — the paper's Markov model declares a recovery line only
  when *every* process's most recent action is a recovery point, which is a
  conservative (sufficient) version of the true pairwise no-sandwiched-message
  condition.  The ablation measures how much shorter the inter-line intervals are
  under the exact detector, i.e. how conservative the paper's model is.
* **Solver ablation** — the density ``f_X(t)`` can be computed from the phase-type
  closed form (matrix exponentials) or by integrating the Chapman–Kolmogorov ODEs
  (the formulation the paper writes down).  The ablation checks the two agree and
  reports their discrepancy.

The detector ablation generates one history per case through the runner backend
(both detectors are applied to the same history inside the worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["detector_ablation_scenario", "solver_ablation_scenario"]


@dataclass(frozen=True)
class _DetectorTask:
    case: int
    duration: float
    seed: np.random.SeedSequence


def _compare_detectors(task: _DetectorTask) -> Dict[str, float]:
    """Run both detectors over one generated history; return the row metrics."""
    from repro.core.intervals import extract_intervals, summarize_intervals
    from repro.core.recovery_line import (ExactRecoveryLineDetector,
                                          LatestRPRecoveryLineDetector)
    from repro.markov.montecarlo import ModelSimulator
    from repro.workloads.generators import paper_table1_case

    params = paper_table1_case(task.case)
    history = ModelSimulator(params, seed=task.seed).generate_history(task.duration)
    latest_obs = extract_intervals(history, LatestRPRecoveryLineDetector())
    exact_obs = extract_intervals(history, ExactRecoveryLineDetector())
    latest_mean = summarize_intervals(latest_obs)["mean_X"] if latest_obs \
        else float("nan")
    exact_mean = summarize_intervals(exact_obs)["mean_X"] if exact_obs \
        else float("nan")
    return {
        "latest-RP E[X]": latest_mean,
        "exact E[X]": exact_mean,
        "exact lines": float(len(exact_obs)),
        "latest-RP lines": float(len(latest_obs)),
        "conservatism": latest_mean / exact_mean if exact_mean else float("nan"),
    }


@scenario("detector_ablation",
          description="Exact vs latest-RP recovery-line detection",
          paper_reference="Section 2.2 model choice (conservative line condition)",
          default_reps=1)
def detector_ablation_scenario(ctx: ExecutionContext, *,
                               cases: Sequence[int] = (1, 2),
                               duration: float = 300.0) -> ExperimentResult:
    """Exact vs latest-RP recovery-line detection on the same histories.

    ``ctx.reps`` scales the history length (``reps`` histories' worth of
    duration per case, still analysed as one trajectory each).
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    total_duration = duration * ctx.reps_or(1)
    columns = ["model E[X]", "latest-RP E[X]", "exact E[X]",
               "exact lines", "latest-RP lines", "conservatism"]
    result = ExperimentResult(
        name="ablation_recovery_line_detectors",
        paper_reference="Section 2.2 model choice (conservative line condition)",
        columns=columns,
        notes=("'conservatism' = latest-RP E[X] / exact E[X]; values above 1 "
               "quantify how much the paper's Markov condition overestimates the "
               "spacing of recovery lines relative to the exact definition."),
    )
    cases = list(cases)
    tasks = [_DetectorTask(case, total_duration, ctx.spawn_seed())
             for case in cases]
    rows = ctx.map(_compare_detectors, tasks)
    analytic_by_case = dict(zip(cases, evaluate_in_context(
        ctx,
        [StudySpec(system=SystemSpec.table1_case(case), metrics=("mean",),
                   options={"prefer_simplified": False})
         for case in cases],
        method="analytic")))
    for case, metrics in zip(cases, rows):
        result.add_row(f"table1 case {case}",
                       **{"model E[X]": analytic_by_case[case].mean, **metrics})
    return result


@scenario("solver_ablation",
          description="Phase-type closed form vs Chapman-Kolmogorov ODE solver",
          paper_reference="Section 2.3 (Chapman-Kolmogorov equations)")
def solver_ablation_scenario(ctx: ExecutionContext, *, case: int = 1,
                             times: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0)
                             ) -> ExperimentResult:
    """Phase-type (expm, via the facade) vs Chapman–Kolmogorov ODE ``F_X(t)``."""
    from repro.api import StudySpec, SystemSpec, evaluate
    from repro.markov.ctmc import transient_distribution
    from repro.markov.generator import build_generator
    from repro.workloads.generators import paper_table1_case

    case = int(case)
    params = paper_table1_case(case)
    H, space = build_generator(params)
    pi0 = np.zeros(space.n_states)
    pi0[space.entry_index] = 1.0
    grid = np.asarray(times, dtype=float)
    ode = transient_distribution(H, pi0, grid)
    cdf_ode = ode[:, space.absorbing_index]
    evaluation = evaluate(
        StudySpec(system=SystemSpec.table1_case(case), metrics=("cdf",),
                  times=tuple(float(t) for t in times),
                  options={"prefer_simplified": False}),
        method="analytic")
    cdf_ph = np.asarray(evaluation.distributions["cdf"])

    result = ExperimentResult(
        name="ablation_density_solvers",
        paper_reference="Section 2.3 (Chapman-Kolmogorov equations)",
        columns=["F_X expm", "F_X ode", "abs diff"],
        notes="Closed-form phase-type evaluation vs direct ODE integration of dpi/dt = pi H.",
    )
    for t, a, b in zip(grid, cdf_ph, cdf_ode):
        result.add_row(f"t={t:g}", **{
            "F_X expm": float(a),
            "F_X ode": float(b),
            "abs diff": float(abs(a - b)),
        })
    return result
