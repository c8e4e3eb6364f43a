"""Cross-validation: analytic model vs model-level Monte Carlo vs full DES.

Not a paper artefact, but the evidence that the substrate reproduces the paper's
stochastic model: for the Table 1 cases, the phase-type mean ``E[X]``, the
Monte-Carlo estimate from :class:`~repro.markov.montecarlo.ModelSimulator`, and the
history-level estimate obtained by running the latest-RP recovery-line detector
over a generated history must all agree within sampling error.

Both the Monte-Carlo sampling (sharded per case) and the history generation run
through the experiment runner's backend, so the whole validation fans out across
cores with bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["validation_scenario"]

DEFAULT_INTERVALS = 4_000


@dataclass(frozen=True)
class _HistoryTask:
    case: int
    duration: float
    seed: np.random.SeedSequence


def _history_mean(task: _HistoryTask) -> Tuple[float, int]:
    """Generate one history and return (mean interval, interval count)."""
    from repro.core.intervals import extract_intervals, summarize_intervals
    from repro.core.recovery_line import LatestRPRecoveryLineDetector
    from repro.markov.montecarlo import ModelSimulator
    from repro.workloads.generators import paper_table1_case

    params = paper_table1_case(task.case)
    history = ModelSimulator(params, seed=task.seed).generate_history(task.duration)
    observations = extract_intervals(history, LatestRPRecoveryLineDetector())
    if not observations:
        return float("nan"), 0
    return summarize_intervals(observations)["mean_X"], len(observations)


@scenario("validation",
          description="Three-way agreement: analytic vs Monte-Carlo vs history",
          paper_reference="Section 2.3 methodology (analytic vs simulation)",
          default_reps=DEFAULT_INTERVALS)
def validation_scenario(ctx: ExecutionContext, *,
                        cases: Sequence[int] = (1, 2, 3),
                        history_duration: float = 400.0) -> ExperimentResult:
    """Three-way agreement check on ``E[X]`` for selected Table 1 cases.

    ``ctx.reps`` is the per-case Monte-Carlo interval budget.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    n_intervals = ctx.reps_or(DEFAULT_INTERVALS)
    columns = ["analytic E[X]", "MC E[X]", "MC stderr", "history E[X]",
               "MC rel err", "history rel err"]
    result = ExperimentResult(
        name="validation_three_way",
        paper_reference="Section 2.3 methodology (analytic vs simulation)",
        columns=columns,
        notes=("'MC' samples the model directly; 'history' generates a full event "
               "history and extracts intervals with the latest-RP detector — all "
               "three must agree within sampling error."),
    )
    cases = list(cases)

    def case_spec(case: int) -> StudySpec:
        return StudySpec(system=SystemSpec.table1_case(case), metrics=("mean",),
                         reps=n_intervals,
                         options={"prefer_simplified": False})

    # MC first, then the history seeds: the facade shards consume the seed
    # stream in the same order the pre-facade sampler did.
    mc_by_case = dict(zip(cases, evaluate_in_context(
        ctx, [case_spec(case) for case in cases], method="mc")))
    history_tasks = [_HistoryTask(case, history_duration, ctx.spawn_seed())
                     for case in cases]
    history_outputs = ctx.map(_history_mean, history_tasks)
    analytic_by_case = dict(zip(cases, evaluate_in_context(
        ctx, [case_spec(case) for case in cases], method="analytic")))

    for case, (history_mean, _count) in zip(cases, history_outputs):
        analytic = analytic_by_case[case].mean
        mc = mc_by_case[case]
        result.add_row(f"table1 case {case}", **{
            "analytic E[X]": analytic,
            "MC E[X]": mc.mean,
            "MC stderr": mc.stderr,
            "history E[X]": history_mean,
            "MC rel err": abs(mc.mean - analytic) / analytic,
            "history rel err": abs(history_mean - analytic) / analytic,
        })
    return result
