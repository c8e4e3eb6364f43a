"""Section 4 — overheads and rollback-distance bound of pseudo recovery points.

The paper derives three costs for the PRP scheme — ``(n−1)t_r`` extra time per
recovery point, ``n`` saved states per RP, and a rollback distance bounded by
``sup{y_i}`` — and contrasts them with the asynchronous scheme's unbounded
rollback.  This experiment tabulates those quantities against the asynchronous
baseline (``E[X]``) as the number of processes grows, which makes the trade-off the
conclusion describes quantitative.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.prp_overhead import PRPOverheadModel
from repro.core.parameters import SystemParameters
from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["prp_costs_scenario"]


@scenario("prp_costs",
          description="Section 4: PRP overhead, storage and rollback bound vs n",
          paper_reference="Section 4 (PRP overhead, storage, rollback distance bound)")
def prp_costs_scenario(ctx: ExecutionContext, *,
                       n_values: Sequence[int] = (2, 3, 4, 5, 6, 8, 10),
                       mu: float = 1.0, rho: float = 1.0,
                       record_cost: float = 0.02) -> ExperimentResult:
    """Tabulate PRP costs versus the asynchronous baseline for growing ``n``.

    The asynchronous baseline ``E[X]`` comes from the facade's analytic
    engine (lumped symmetric chain); the PRP quantities are closed forms.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    n_values = list(n_values)
    multi = [n for n in n_values if n > 1]
    async_ex_by_n = dict(zip(multi, (evaluation.mean for evaluation in
        evaluate_in_context(
            ctx,
            [StudySpec(system=SystemSpec.symmetric(
                           n, mu, rho * (mu * n) / (n * (n - 1))),
                       metrics=("mean",))
             for n in multi],
            method="analytic"))))

    columns = ["extra time per RP", "overhead rate", "states per RP",
               "steady storage", "PRP rollback bound", "async E[X]",
               "bound / E[X]"]
    result = ExperimentResult(
        name="prp_costs_vs_n",
        paper_reference="Section 4 (PRP overhead, storage, rollback distance bound)",
        columns=columns,
        notes=("The PRP rollback bound grows like H_n/mu while the asynchronous "
               "inter-recovery-line interval E[X] explodes combinatorially, so the "
               "ratio collapses as n grows — the quantitative version of the "
               "paper's argument for PRPs."),
    )
    for n in n_values:
        lam = rho * (mu * n) / (n * (n - 1)) if n > 1 else 0.0
        params = SystemParameters.symmetric(n, mu, lam)
        prp = PRPOverheadModel(params, record_cost=record_cost)
        async_ex = async_ex_by_n[n] if n > 1 else 1.0 / mu
        bound = prp.rollback_distance_bound()
        result.add_row(f"n={n}", **{
            "extra time per RP": prp.extra_time_per_rp(),
            "overhead rate": prp.overhead_time_rate(),
            "states per RP": float(prp.states_per_rp()),
            "steady storage": float(prp.steady_state_storage()),
            "PRP rollback bound": bound,
            "async E[X]": async_ex,
            "bound / E[X]": bound / async_ex if async_ex > 0 else float("inf"),
        })
    return result
