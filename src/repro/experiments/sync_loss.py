"""Section 3 — mean computation-power loss of synchronized recovery blocks.

The paper gives the closed form ``CL = n∫(1−G(t))dt − Σ1/μ_i`` but no table; this
experiment tabulates it over the dimensions the text discusses — the number of
processes and the heterogeneity of the checkpointing rates — and cross-checks the
analytic value against the synchronized runtime's measured waiting loss.

Both scenarios speak the unified facade language: each ``(n, heterogeneity)``
point is a ``strategy`` :class:`~repro.api.StudySpec` (synchronized scheme),
served by the analytic engine's closed forms — and, for the validation
scenario, by the measuring strategy engine on the same declared system, which
is what makes the analytic/measured comparison a genuine cross-engine check.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, scenario

__all__ = ["sync_loss_scenario", "sync_loss_validation_scenario"]


def _loss_system(scheme_n: int, mu: float, *, mu_spread: float = 1.0,
                 sync_interval: float = 3.0, work: float = 400.0):
    """The declarative system of one CL cell (zero-cost, fault-free workload).

    Costs and faults are zeroed so the measured waiting loss isolates the
    synchronisation loss the closed form describes — the same workload the
    pre-facade validation experiment built by hand.
    """
    from repro.api import SystemSpec
    return SystemSpec.strategy("synchronized", scheme_n, mu=mu,
                               mu_spread=mu_spread, lam=0.5, work=work,
                               error_rate=0.0, checkpoint_cost=0.0,
                               restart_cost=0.0, sync_interval=sync_interval)


@scenario("sync_loss",
          description="Section 3: mean computation-power loss CL vs n",
          paper_reference="Section 3 (mean loss in computation power, eq. for CL)",
          renderer="sync_loss")
def sync_loss_scenario(ctx: ExecutionContext, *,
                       n_values: Sequence[int] = (2, 3, 4, 6, 8, 12, 16),
                       mu: float = 1.0,
                       heterogeneity: Sequence[float] = (1.0, 2.0, 4.0)
                       ) -> ExperimentResult:
    """Regenerate the CL table through the facade's analytic closed forms.

    ``heterogeneity = h`` spreads the rates geometrically between ``μ/h`` and
    ``μ·h`` (keeping the same total rate); ``h = 1`` is the homogeneous case.
    The ``(n, h)`` grid cells fan out through the backend.
    """
    from repro.api import StudySpec, evaluate_in_context

    heterogeneity = [float(h) for h in heterogeneity]
    if any(h <= 0.0 for h in heterogeneity):
        raise ValueError("heterogeneity factors must be positive")
    n_values = [int(n) for n in n_values]
    grid = [(n, h) for n in n_values for h in heterogeneity]
    specs = [StudySpec(system=_loss_system(n, mu, mu_spread=h),
                       metrics=("sync_loss", "expected_wait"))
             for n, h in grid]
    cells = dict(zip(grid, evaluate_in_context(ctx, specs, method="analytic")))

    columns = [f"CL h={h:g}" for h in heterogeneity] + ["E[Z] h=1", "CL per proc h=1"]
    result = ExperimentResult(
        name="sync_loss_vs_n",
        paper_reference="Section 3 (mean loss in computation power, eq. for CL)",
        columns=columns,
        notes=("CL grows like n(H_n - 1)/mu for homogeneous rates; spreading the "
               "rates at constant total increases the loss because the slowest "
               "process dictates the commit."),
    )
    for n in n_values:
        values = {f"CL h={h:g}": cells[(n, h)].metrics["sync_loss"]
                  for h in heterogeneity}
        homogeneous = cells[(n, 1.0)] if 1.0 in heterogeneity else \
            evaluate_in_context(ctx, [StudySpec(
                system=_loss_system(n, mu),
                metrics=("sync_loss", "expected_wait"))], method="analytic")[0]
        values["E[Z] h=1"] = homogeneous.metrics["expected_wait"]
        values["CL per proc h=1"] = homogeneous.metrics["sync_loss"] / n
        result.add_row(f"n={n}", **values)
    return result


@scenario("sync_loss_validation",
          description="Section 3 CL formula vs the synchronized runtime",
          paper_reference="Section 3 (CL formula) — runtime cross-check",
          default_reps=1)
def sync_loss_validation_scenario(ctx: ExecutionContext, *, n: int = 3,
                                  mu: float = 1.0, sync_interval: float = 3.0,
                                  work: float = 400.0) -> ExperimentResult:
    """Compare the analytic ``CL`` with the synchronized runtime's measurement.

    One declared system, two engines: the strategy engine measures the mean
    waiting loss per committed recovery line over ``ctx.reps`` replications
    (each with its own spawned seed; the default of one replication matches
    the original single-run experiment), the analytic engine supplies the
    closed form.
    """
    from repro.api import StudySpec, evaluate_in_context

    reps = ctx.reps_or(1)
    system = _loss_system(n, mu, sync_interval=sync_interval, work=work)
    [measured] = evaluate_in_context(
        ctx, [StudySpec(system=system,
                        metrics=("sync_loss", "recovery_lines_total"),
                        reps=reps)],
        method="strategy")
    [closed_form] = evaluate_in_context(
        ctx, [StudySpec(system=system, metrics=("sync_loss",))],
        method="analytic")
    analytic = closed_form.metrics["sync_loss"]
    measured_loss = measured.metrics["sync_loss"]
    result = ExperimentResult(
        name="sync_loss_validation",
        paper_reference="Section 3 (CL formula) — runtime cross-check",
        columns=["analytic CL", "measured CL", "relative error", "lines committed"],
        notes="Measured mean waiting loss per committed recovery line vs. the closed form.",
    )
    rel = abs(measured_loss - analytic) / analytic if analytic > 0 else 0.0
    result.add_row(f"n={n} mu={mu:g}", **{
        "analytic CL": analytic,
        "measured CL": measured_loss,
        "relative error": rel,
        "lines committed": measured.metrics["recovery_lines_total"],
    })
    return result
