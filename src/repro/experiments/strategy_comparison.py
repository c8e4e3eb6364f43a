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
averaged metrics backend independent.  :func:`run_strategy_comparison` keeps
the direct-runtime path for arbitrary :class:`WorkloadSpec` values (recovery
blocks, acceptance models) the declarative spec does not express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.runner import (
    ExecutionContext,
    SerialBackend,
    make_backend,
    scenario,
)

if TYPE_CHECKING:  # the runtimes load where a scheme runs
    from repro.recovery.report import RunReport
    from repro.workloads.spec import WorkloadSpec

__all__ = ["run_strategy_comparison", "run_scheme_replications"]

METRIC_COLUMNS = ("makespan", "slowdown", "rollbacks", "mean_rollback_distance",
                  "max_rollback_distance", "lost_work", "checkpoint_overhead",
                  "waiting_time", "peak_saved_states")


def _run_scheme(scheme: str, workload: WorkloadSpec, seed: int,
                sync_interval: float) -> RunReport:
    from repro.recovery import make_runtime
    return make_runtime(scheme, workload, seed=seed,
                        sync_interval=sync_interval).run()


@dataclass(frozen=True)
class _SchemeRun:
    """One picklable (scheme, replication) runtime task."""

    scheme: str
    workload: WorkloadSpec
    seed: int
    sync_interval: float


def _run_scheme_task(task: _SchemeRun) -> RunReport:
    return _run_scheme(task.scheme, task.workload, task.seed, task.sync_interval)


def _summarize(reports: Sequence[RunReport]) -> Dict[str, float]:
    def mean(getter) -> float:
        return float(np.mean([getter(rep) for rep in reports]))

    return {
        "makespan": mean(lambda r: r.makespan),
        "slowdown": mean(lambda r: r.slowdown),
        "rollbacks": mean(lambda r: r.rollback_count),
        "mean_rollback_distance": mean(lambda r: r.mean_rollback_distance),
        "max_rollback_distance": mean(lambda r: r.max_rollback_distance),
        "lost_work": mean(lambda r: r.lost_work_total),
        "checkpoint_overhead": mean(lambda r: r.checkpoint_overhead_total),
        "waiting_time": mean(lambda r: r.waiting_time_total),
        "peak_saved_states": mean(lambda r: r.peak_saved_states),
        "completed": float(np.mean([1.0 if r.completed else 0.0 for r in reports])),
    }


def run_scheme_replications(scheme: str, workload: WorkloadSpec, *,
                            replications: int = 5, base_seed: int = 100,
                            sync_interval: float = 2.0,
                            backend=None) -> Dict[str, float]:
    """Run one scheme several times and average the headline metrics."""
    if replications < 1:
        raise ValueError("need at least one replication")
    backend = make_backend(backend) if backend is not None else SerialBackend()
    tasks = [_SchemeRun(scheme, workload, base_seed + r, sync_interval)
             for r in range(replications)]
    return _summarize(backend.map(_run_scheme_task, tasks))


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


def _tabulate(schemes: Sequence[str], tasks: List[_SchemeRun],
              reports: Sequence[RunReport], replications: int
              ) -> ExperimentResult:
    result = _comparison_result(replications)
    for scheme in schemes:
        scheme_reports = [rep for task, rep in zip(tasks, reports)
                          if task.scheme == scheme]
        metrics = _summarize(scheme_reports)
        result.add_row(scheme, **{k: metrics[k] for k in METRIC_COLUMNS})
    return result


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
    backend = make_backend(backend, workers)
    tasks = [_SchemeRun(scheme, workload, base_seed + r, sync_interval)
             for scheme in schemes for r in range(replications)]
    reports = backend.map(_run_scheme_task, tasks)
    return _tabulate(schemes, tasks, reports, replications)
