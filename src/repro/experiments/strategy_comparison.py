"""Executable comparison of the three recovery schemes on the same workload.

The paper compares the schemes analytically; this experiment runs all three
*runtimes* on identical workloads (same seeds, same fault timeline statistics) and
reports the measured makespan, rollback behaviour, overheads and storage — the
empirical counterpart of the conclusion's trade-off discussion, and the experiment
behind the ``strategy_comparison`` example.

The registered scenario is expressed through the unified facade: one
``strategy`` :class:`~repro.api.StudySpec` per scheme, evaluated by
:func:`repro.api.evaluate_in_context` with the strategy engine.  Every
(scheme, replication) pair remains one task for the experiment runner, so the
whole comparison fans out across worker processes; seeds per replication are
fixed up front and shared across schemes (common random numbers), keeping the
averaged metrics backend independent.  :func:`run_strategy_comparison` runs
the schemes on an arbitrary :class:`WorkloadSpec` (recovery blocks, acceptance
models, pipeline rates) the declarative spec does not express, and averages
each scheme's runs through the strategy engine's per-run getters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext, make_backend, scenario

if TYPE_CHECKING:  # the runtimes load where a scheme runs
    from repro.recovery.report import RunReport
    from repro.workloads.spec import WorkloadSpec

__all__ = ["strategy_comparison_scenario", "run_strategy_comparison"]

METRIC_COLUMNS = ("makespan", "slowdown", "rollbacks", "mean_rollback_distance",
                  "max_rollback_distance", "lost_work", "checkpoint_overhead",
                  "waiting_time", "peak_saved_states")


@dataclass(frozen=True)
class _SchemeRun:
    """One picklable (scheme, replication) runtime task."""

    scheme: str
    workload: WorkloadSpec
    seed: int
    sync_interval: float


def _run_scheme_task(task: _SchemeRun) -> RunReport:
    from repro.recovery import make_runtime
    return make_runtime(task.scheme, task.workload, seed=task.seed,
                        sync_interval=task.sync_interval).run()


def _comparison_result(notes_replications: int) -> ExperimentResult:
    return ExperimentResult(
        name="strategy_comparison_runtime",
        paper_reference="Sections 2-5 trade-off discussion (executable version)",
        columns=list(METRIC_COLUMNS),
        notes=(f"Averages over {notes_replications} replications of the same "
               "workload; the asynchronous scheme trades low normal-operation "
               "overhead for long (potentially unbounded) rollbacks, the "
               "synchronized scheme trades waiting time for bounded rollback, "
               "PRPs pay state-saving overhead for bounded rollback without "
               "waiting."),
    )


@scenario("strategy_comparison",
          description="All three recovery schemes on one workload (measured)",
          paper_reference="Sections 2-5 trade-off discussion (executable version)",
          default_reps=5, renderer="strategy_tradeoff")
def strategy_comparison_scenario(ctx: ExecutionContext, *,
                                 n: int = 3, mu: float = 1.0, lam: float = 1.0,
                                 work: float = 25.0, error_rate: float = 0.04,
                                 sync_interval: float = 2.0,
                                 schemes: Sequence[str] = ("asynchronous",
                                                           "synchronized",
                                                           "pseudo")
                                 ) -> ExperimentResult:
    """Run every scheme on a homogeneous workload; ``ctx.reps`` replications each.

    One ``strategy`` study cell per scheme, evaluated through the unified
    facade.  The strategy engine shares one replication seed block across the
    cells (common random numbers: replication r uses the same seed for every
    scheme, so the seed noise cancels out of the scheme-vs-scheme deltas) —
    the same task/seed layout as the pre-facade version, bit for bit.
    """
    from repro.api import StudySpec, SystemSpec, evaluate_in_context

    replications = ctx.reps_or(5)
    specs = [StudySpec(system=SystemSpec.strategy(
                           str(scheme), n, mu=mu, lam=lam, work=work,
                           error_rate=error_rate, sync_interval=sync_interval),
                       metrics=METRIC_COLUMNS + ("completed",),
                       reps=replications)
             for scheme in schemes]
    evaluations = evaluate_in_context(ctx, specs, method="strategy")
    result = _comparison_result(replications)
    for scheme, evaluation in zip(schemes, evaluations):
        result.add_row(str(scheme), **{name: evaluation.metrics[name]
                                       for name in METRIC_COLUMNS})
    return result


def run_strategy_comparison(workload: WorkloadSpec, *, replications: int = 5,
                            base_seed: int = 100, sync_interval: float = 2.0,
                            schemes: Sequence[str] = ("asynchronous", "synchronized",
                                                      "pseudo"),
                            backend=None,
                            workers: Optional[int] = None) -> ExperimentResult:
    """Run every scheme on *workload* and tabulate the averaged metrics.

    Takes an explicit :class:`WorkloadSpec` (unlike the registered scenario,
    which builds a homogeneous one), so the examples can compare schemes on
    arbitrary workloads; replications fan out across the backend.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    from repro.api.strategy import REPORT_GETTERS

    backend = make_backend(backend, workers)
    tasks = [_SchemeRun(scheme, workload, base_seed + r, sync_interval)
             for scheme in schemes for r in range(replications)]
    reports = backend.map(_run_scheme_task, tasks)
    result = _comparison_result(replications)
    for i, scheme in enumerate(schemes):
        runs = reports[i * replications:(i + 1) * replications]
        result.add_row(scheme, **{
            name: float(np.mean([REPORT_GETTERS[name](r) for r in runs]))
            for name in METRIC_COLUMNS})
    return result
