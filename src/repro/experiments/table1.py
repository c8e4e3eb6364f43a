"""Table 1 — ``E[X]`` and ``E[L_i]`` for five parameter cases at constant ρ.

The paper tabulates, for five (μ, λ) combinations with the same communication
density, the mean inter-recovery-line interval and the mean number of states each
process saves during it, and observes that "the minima of X and L occur when the
distribution of recovery points among these processes is uniformly balanced" while
the distribution of interprocess communications "has little effect on X and L".

We reproduce every cell analytically and optionally re-run the paper's own
methodology (Monte-Carlo simulation of the model) for comparison.  The paper's
``E(L_i)`` values match our analytic values under the *all* counting convention
(the recovery point that completes the next line is included) to the three decimal
places printed in the paper.

Both the analytic and the Monte-Carlo columns are computed through the
:mod:`repro.api` facade (one :class:`~repro.api.spec.StudySpec` per case);
the Monte-Carlo budget is sharded into fixed-size tasks with driver-spawned
seeds, so ``--backend process`` reproduces the serial numbers bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario
from repro.workloads.generators import TABLE1_CASES

__all__ = ["table1_scenario", "PAPER_TABLE1"]

#: The values printed in the paper (E(X), E(L1), E(L2), E(L3), ΣE(L)).
PAPER_TABLE1 = {
    1: (2.598, 2.500, 2.500, 2.500, 7.500),
    2: (3.357, 4.847, 3.231, 1.616, 9.693),
    3: (2.600, 2.453, 2.453, 2.453, 7.360),
    4: (3.203, 4.533, 3.022, 1.511, 9.065),
    5: (3.354, 4.967, 3.111, 1.656, 9.933),
}

DEFAULT_INTERVALS = 20_000


@scenario("table1",
          description="Table 1: E[X] and E[L_i] for the five parameter cases",
          paper_reference="Table 1 (mean values of X and L for constant rho)",
          default_reps=DEFAULT_INTERVALS,
          renderer="table")
def table1_scenario(ctx: ExecutionContext, *, simulate: bool = False
                    ) -> ExperimentResult:
    """Regenerate Table 1.

    With ``simulate=True`` the Monte-Carlo columns (the paper's own methodology)
    are added next to the analytic ones; ``ctx.reps`` is the per-case interval
    budget.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    n_intervals = ctx.reps_or(DEFAULT_INTERVALS)
    columns = ["E[X]", "E[L1]", "E[L2]", "E[L3]", "sum E[L]",
               "paper E[X]", "paper sum E[L]"]
    if simulate:
        columns += ["sim E[X]", "sim sum E[L]"]
    result = ExperimentResult(
        name="table1_mean_interval_and_counts",
        paper_reference="Table 1 (mean values of X and L for constant rho)",
        columns=columns,
        notes=("E[L_i] uses the 'all' counting convention (mu_i * E[X]); under it "
               "our analytic values match the paper's E(L) cells to the printed "
               "precision.  The paper's E(X) column came from simulation and sits "
               "3-6% above the analytic mean."),
    )
    cases = list(range(1, len(TABLE1_CASES) + 1))

    def case_spec(case: int) -> StudySpec:
        return StudySpec(system=SystemSpec.table1_case(case),
                         metrics=("mean", "rp_counts"), counting="all",
                         reps=n_intervals,
                         options={"prefer_simplified": False})

    # MC first: its sharded tasks consume the context's seed stream in the
    # same (case-ordered) layout the pre-facade sampler used.
    sampled = {}
    if simulate:
        sampled = dict(zip(cases, evaluate_in_context(
            ctx, [case_spec(case) for case in cases], method="mc")))
    analytic = dict(zip(cases, evaluate_in_context(
        ctx, [case_spec(case) for case in cases], method="analytic")))

    for case in cases:
        counts = analytic[case].rp_counts
        paper = PAPER_TABLE1[case]
        values = {
            "E[X]": analytic[case].mean,
            "E[L1]": counts[0],
            "E[L2]": counts[1],
            "E[L3]": counts[2],
            "sum E[L]": float(np.asarray(counts).sum()),
            "paper E[X]": paper[0],
            "paper sum E[L]": paper[4],
        }
        if simulate:
            sim = sampled[case]
            values["sim E[X]"] = sim.mean
            values["sim sum E[L]"] = float(np.asarray(sim.rp_counts).sum())
        mu, lam = TABLE1_CASES[case - 1]
        result.add_row(f"case {case} mu={mu} lam={lam}", **values)
    return result
