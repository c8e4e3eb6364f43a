"""Figure 6 — the density ``f_X(t)`` of the inter-recovery-line interval.

Three parameter cases are plotted in the paper over a normalised time axis from 0
to 2; all three show a sharp peak near ``t = 0`` "due to direct transition between
``S_r`` and ``S_{r+1}`` and a longer transition time needed once the system enters
intermediate states".  The experiment evaluates the analytic density on a grid and
also reports the direct-transition probability mass that explains the spike.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario
from repro.workloads.generators import FIGURE6_CASES, paper_figure6_case

__all__ = ["figure6_scenario", "figure6_curves"]


@scenario("figure6",
          description="Figure 6: the density f_X(t) of the recovery-line interval",
          paper_reference="Figure 6 (the density function of X)",
          renderer="figure6")
def figure6_scenario(ctx: ExecutionContext, *,
                     sample_times: Sequence[float] = (0.0, 0.2, 0.4, 0.8, 1.2,
                                                      1.6, 2.0)
                     ) -> ExperimentResult:
    """Regenerate Figure 6 through the facade's analytic engine.

    Each paper case is one :class:`~repro.api.spec.StudySpec` requesting the
    density and mean on the sample grid; cases fan out through the backend.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    sample_times = tuple(float(t) for t in sample_times)
    cases = list(range(1, len(FIGURE6_CASES) + 1))
    evaluations = evaluate_in_context(
        ctx,
        [StudySpec(system=SystemSpec.figure6_case(case),
                   metrics=("pdf", "mean"), times=sample_times,
                   options={"prefer_simplified": False})
         for case in cases],
        method="analytic")

    columns = [f"f({t:g})" for t in sample_times] + ["P[direct]", "E[X]"]
    result = ExperimentResult(
        name="figure6_interval_density",
        paper_reference="Figure 6 (the density function of X)",
        columns=columns,
        notes=("All three cases show the paper's sharp rise near t=0 caused by the "
               "direct S_r -> S_{r+1} transition; the tail decays with the slowest "
               "phase-type rate."),
    )
    for case, evaluation in zip(cases, evaluations):
        params = paper_figure6_case(case)
        # Probability the first event out of S_r is a recovery point (rule R4),
        # i.e. the next line forms with no intermediate excursion at all.
        direct = params.total_rp_rate / params.uniformization_constant()
        densities = evaluation.distributions["pdf"]
        values = {f"f({t:g})": float(d)
                  for t, d in zip(sample_times, densities)}
        values["P[direct]"] = direct
        values["E[X]"] = evaluation.mean
        mu, lam = FIGURE6_CASES[case - 1]
        result.add_row(f"case {case} mu={mu} lam={lam}", **values)
    return result


def figure6_curves(t_max: float = 2.0, n_points: int = 81):
    """Return ``(times, {case label: density array})`` for the three cases."""
    from repro.markov.recovery_line_interval import RecoveryLineIntervalModel

    times = np.linspace(0.0, t_max, n_points)
    curves = {}
    for case in range(1, len(FIGURE6_CASES) + 1):
        params = paper_figure6_case(case)
        model = RecoveryLineIntervalModel(params, prefer_simplified=False)
        curves[f"case {case}"] = np.asarray(model.pdf(times))
    return times, curves
