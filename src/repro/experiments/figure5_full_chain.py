"""Figure 5 at large ``n`` on the *full* (unlumped) chain — sparse backend.

The paper's Figure 5 sweep is only feasible at large ``n`` through the lumped
symmetric chain (``n + 2`` states).  With the sparse
:class:`~repro.markov.operators.TransientOperator` backend the full
``2^n``-state chain itself becomes tractable, which turns the lumpability
argument from a small-``n`` spot check into a large-``n`` cross-validation:
for every ``(n, ρ)`` cell this scenario computes ``E[X]`` on the full chain
(CSR generator + sparse solves) *and* on the lumped chain, and reports the
relative disagreement — which must sit at solver precision.

The ``(n, ρ)`` grid cells are independent, so they are fanned out through the
runner backend (``ctx.map``); the computation is deterministic, hence serial
and process-pool runs are bit-identical by construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["figure5_full_chain_scenario"]


@scenario("figure5_full_chain",
          description="Figure 5 extension: E[X] vs n on the sparse full chain",
          paper_reference="Figure 5 (full-chain large-n cross-check of the "
                          "lumped symmetric chain)",
          renderer="figure5_full_chain")
def figure5_full_chain_scenario(ctx: ExecutionContext, *,
                                n_values: Sequence[int] = (6, 8, 10, 12),
                                rho_values: Sequence[float] = (0.5, 1.0, 2.0),
                                mu: float = 1.0,
                                agreement_tol: float = 1e-6
                                ) -> ExperimentResult:
    """Compute ``E[X]`` on the full ``2^n``-state chain for every ``(n, ρ)``.

    ``agreement_tol`` bounds the admissible full-vs-lumped relative error; a
    violation raises, because it would mean the sparse backend (or the lumping
    argument) is wrong, not that the physics changed.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context
    from repro.markov.simplified import SimplifiedChain

    n_values = [int(n) for n in n_values]
    if any(n < 2 for n in n_values):
        raise ValueError("the full-chain sweep needs at least two processes")
    rho_values = [float(rho) for rho in rho_values]
    mu = float(mu)

    def cell_lam(n: int, rho: float) -> float:
        return rho * (mu * n) / (n * (n - 1))

    grid = [(n, rho) for n in n_values for rho in rho_values]
    evaluations = evaluate_in_context(
        ctx,
        [StudySpec(system=SystemSpec.symmetric(n, mu, cell_lam(n, rho)),
                   metrics=("mean",), options={"prefer_simplified": False})
         for n, rho in grid],
        method="analytic")
    outputs = []
    for (n, rho), evaluation in zip(grid, evaluations):
        lumped_mean = SimplifiedChain(n=n, mu=mu,
                                      lam=cell_lam(n, rho)).mean_interval()
        rel_err = abs(evaluation.mean - lumped_mean) / max(lumped_mean, 1e-300)
        outputs.append((evaluation.mean, rel_err, evaluation.backend))

    columns = [f"E[X] rho={rho:g}" for rho in rho_values] + ["max rel err"]
    result = ExperimentResult(
        name="figure5_full_chain_vs_lumped",
        paper_reference="Figure 5 (full-chain large-n cross-check of the "
                        "lumped symmetric chain)",
        columns=columns,
        notes=("E[X] from the full 2^n-state chain (dense <= "
               "512 transient states, sparse CSR + Krylov/sparse-LU above); "
               "'max rel err' is the worst disagreement against the lumped "
               "chain across the row's rho values — lumpability holds, so it "
               "sits at solver precision."),
    )
    per_row = len(rho_values)
    for row_idx, n in enumerate(n_values):
        row_cells = outputs[row_idx * per_row:(row_idx + 1) * per_row]
        values = {f"E[X] rho={rho:g}": full_mean
                  for rho, (full_mean, _err, _backend) in zip(rho_values,
                                                              row_cells)}
        worst = max(err for _mean, err, _backend in row_cells)
        if worst > agreement_tol:
            raise AssertionError(
                f"full and lumped chains disagree at n={n}: "
                f"relative error {worst:.3e} > {agreement_tol:.1e}")
        values["max rel err"] = worst
        backends = {backend for _mean, _err, backend in row_cells}
        result.add_row(f"n={n} [{'/'.join(sorted(backends))}]", **values)
    return result
