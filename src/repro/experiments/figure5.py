"""Figure 5 — mean interval ``E[X]`` versus the number of processes ``n``.

The paper plots ``E[X]`` against ``n`` with all ``μ_i = 1`` and all pairwise rates
equal, for a fixed communication density ``ρ = 2Σλ/Σμ`` (caption of Figure 5), and
observes that "X increases drastically when there is an increase in the number of
processes involved in the rollback recovery".  We sweep several ρ values and both
recompute the analytic value (lumped chain) and, for small n, cross-check with the
full chain.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["figure5_scenario"]


@scenario("figure5",
          description="Figure 5: E[X] versus the number of processes",
          paper_reference="Figure 5 (mean value of X vs. the number of processes)",
          renderer="figure5")
def figure5_scenario(ctx: ExecutionContext, *,
                     n_values: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                     rho_values: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                     mu: float = 1.0,
                     cross_check_full_chain_up_to: int = 5) -> ExperimentResult:
    """Regenerate the Figure 5 series.

    For each ``(n, ρ)`` the per-pair rate is ``λ = ρ·Σμ / (n(n−1))`` (so that
    ``ρ = 2·Σ_{i<j}λ / Σμ`` matches the caption); ``E[X]`` comes from the
    facade's analytic engine (the lumped symmetric chain), with a full-chain
    cross-check for small systems.  Cells fan out through the backend.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    n_values = [int(n) for n in n_values]
    if any(n < 2 for n in n_values):
        raise ValueError("Figure 5 needs at least two processes")
    rho_values = [float(rho) for rho in rho_values]

    def cell_spec(n: int, rho: float, *, full_chain: bool) -> StudySpec:
        lam = rho * (mu * n) / (n * (n - 1))
        options = {"prefer_simplified": False} if full_chain else {}
        return StudySpec(system=SystemSpec.symmetric(n, mu, lam),
                         metrics=("mean",), options=options)

    grid = [(n, rho) for n in n_values for rho in rho_values]
    lumped = evaluate_in_context(
        ctx, [cell_spec(n, rho, full_chain=False) for n, rho in grid],
        method="analytic")
    check_grid = [(n, rho) for n, rho in grid
                  if n <= cross_check_full_chain_up_to]
    full = dict(zip(check_grid, evaluate_in_context(
        ctx, [cell_spec(n, rho, full_chain=True) for n, rho in check_grid],
        method="analytic")))

    columns = [f"E[X] rho={rho:g}" for rho in rho_values]
    result = ExperimentResult(
        name="figure5_mean_interval_vs_n",
        paper_reference="Figure 5 (mean value of X vs. the number of processes)",
        columns=columns,
        notes=("E[X] grows super-exponentially with n at fixed rho; the paper's "
               "curve shape (drastic increase with n) is reproduced.  Values are "
               "analytic (phase-type mean), not simulated."),
    )
    means = dict(zip(grid, lumped))
    for n in n_values:
        values = {}
        for rho in rho_values:
            mean_x = means[(n, rho)].mean
            if (n, rho) in full:
                full_mean = full[(n, rho)].mean
                if abs(full_mean - mean_x) > 1e-6 * max(1.0, mean_x):
                    raise AssertionError(
                        f"lumped and full chains disagree at n={n}, rho={rho}: "
                        f"{mean_x} vs {full_mean}")
            values[f"E[X] rho={rho:g}"] = mean_x
        result.add_row(f"n={n}", **values)
    return result
