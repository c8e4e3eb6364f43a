"""The ``strategy`` evaluation engine: recovery schemes as study cells.

The paper's conclusion is a *trade-off* argument between synchronized,
asynchronous and pseudo-recovery-point checkpointing.  This module makes that
argument a first-class citizen of the declarative facade: a ``strategy``
:class:`~repro.api.spec.SystemSpec` names a scheme plus a workload, and the
:class:`StrategyEvaluator` drives the corresponding :mod:`repro.recovery`
runtime over the replication budget, averaging the
:class:`~repro.recovery.report.RunReport` quantities into the same
:class:`~repro.api.evaluation.Evaluation` shape every other engine returns.

Determinism follows the runner's contract — seeds spawned in the driver,
results reduced in task order — with one strategy-specific refinement: when
several strategy cells are evaluated *in one context*
(:func:`repro.api.facade.evaluate_in_context`), all cells share one
replication seed block (common random numbers), so replication ``r`` uses the
same fault/interaction timeline under every scheme and the seed noise cancels
out of the scheme-vs-scheme deltas.  This is exactly the pre-facade
``strategy_comparison`` task/seed layout, which keeps its results
bit-identical across the migration.

Replications are shipped to workers in *chunks*: one :class:`StrategyTask`
carries a contiguous slice of the per-cell seed block, so a chunk pays for a
single payload pickle and a single ``SystemSpec.from_dict`` parse instead of
one per replication.  The chunk layout is a pure function of the budget and
the ``rep_chunk`` option — never of the backend or the worker count — and the
per-replication seeds and reduction order are exactly those of the historical
one-task-per-replication layout, so results are float-for-float identical for
every chunk size (pinned by tests/api/test_strategy_chunking.py).

The ``synchronized`` scheme additionally has a closed-form face: Section 3's
``CL`` (``sync_loss``) and ``E[Z]`` (``expected_wait``), served by the
``analytic`` engine through :func:`analytic_strategy_evaluation` so the
measured and exact values are directly comparable — the cross-engine
conformance suite's anchor for the new system kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.api.evaluation import Evaluation
from repro.api.evaluators import (Evaluator, UnsupportedMetricError,
                                  register_evaluator)
from repro.api.spec import StudySpec, SystemSpec
from repro.runner import ExecutionContext, seed_to_int

if TYPE_CHECKING:  # the runtimes load in the worker, on first use
    from repro.recovery.report import RunReport

__all__ = [
    "ANALYTIC_STRATEGY_METRICS",
    "DEFAULT_REP_CHUNK",
    "REPORT_GETTERS",
    "StrategyEvaluator",
    "StrategyTask",
    "analytic_strategy_checks",
    "analytic_strategy_evaluation",
    "run_strategy_task",
]

#: Metrics the runtimes cannot *measure* (they are closed-form quantities of
#: the synchronized scheme; ask the ``analytic`` engine).
_MEASURED_UNSUPPORTED = frozenset({"expected_wait"})

#: The analytic engine's strategy vocabulary (Section 3 closed forms).
ANALYTIC_STRATEGY_METRICS = frozenset({"sync_loss", "expected_wait"})

#: Per-run report getters, named exactly like the strategy metrics.  The engine
#: and :func:`repro.experiments.strategy_comparison.run_strategy_comparison`
#: both reduce a cell to the mean of these over its replications.
REPORT_GETTERS = {
    "makespan": lambda r: r.makespan,
    "slowdown": lambda r: r.slowdown,
    "rollbacks": lambda r: float(r.rollback_count),
    "mean_rollback_distance": lambda r: r.mean_rollback_distance,
    "max_rollback_distance": lambda r: r.max_rollback_distance,
    "lost_work": lambda r: r.lost_work_total,
    "checkpoint_overhead": lambda r: r.checkpoint_overhead_total,
    "restart_overhead": lambda r: r.restart_overhead_total,
    "waiting_time": lambda r: r.waiting_time_total,
    "recovery_lines": lambda r: float(r.recovery_lines_committed),
    "dominoes": lambda r: float(r.domino_count),
    "peak_saved_states": lambda r: r.peak_saved_states,
    "total_saves": lambda r: r.total_saves,
    "completed": lambda r: 1.0 if r.completed else 0.0,
    "sync_loss": lambda r: r.extra.get("mean_sync_loss", 0.0),
}

#: Metrics reported as sums over the budget rather than means (no stderr).
_SUM_METRICS = frozenset({"recovery_lines_total"})


#: Default number of replications bundled into one :class:`StrategyTask`.
#: Large enough to amortise the per-task parse/pickle cost over the default
#: budgets, small enough that a multi-cell sweep still spreads over a pool.
DEFAULT_REP_CHUNK = 8


@dataclass(frozen=True)
class StrategyTask:
    """One picklable work item: a chunk of recovery-scheme replications.

    ``seeds`` is a contiguous slice of the driver-spawned per-cell seed
    block; the worker parses ``system`` once and runs one replication per
    seed, in slice order.  All chunks of one cell share the *same* system
    dict object, so a cell's sweep payload pickles the spec once per chunk
    rather than once per replication.
    """

    system: Dict[str, object]     # SystemSpec.to_dict() of a strategy system
    seeds: Tuple[int, ...]


def run_strategy_task(task: StrategyTask) -> List[RunReport]:
    """Worker entry point: run one chunk of replications, in seed order.

    The workload is materialised once per chunk and shared across the
    replications — runtimes treat :class:`~repro.workloads.spec.WorkloadSpec`
    as read-only, so a shared instance cannot couple the runs (the
    chunked-vs-unchunked equality tests would catch any leakage).
    """
    from repro.recovery import make_runtime
    system = SystemSpec.from_dict(task.system)
    workload = system.build_workload()
    sync_interval = float(system.args["sync_interval"])
    reports = []
    for seed in task.seeds:
        reports.append(make_runtime(system.scheme, workload, seed=seed,
                                    sync_interval=sync_interval).run())
    return reports


class StrategyEvaluator(Evaluator):
    """Measure a recovery scheme by running its runtime over the budget."""

    name = "strategy"
    stochastic = True
    worker = staticmethod(run_strategy_task)
    modules = ("repro.recovery", "repro.workloads.generators",
               "repro.processes.communication")

    # ------------------------------------------------------------------ checks
    def validate(self, spec: StudySpec) -> None:
        if spec.system.kind != "strategy":
            raise UnsupportedMetricError(
                f"the 'strategy' engine evaluates 'strategy' systems only, "
                f"got system kind {spec.system.kind!r}; interval quantities "
                "are served by analytic/mc/des")
        unsupported = sorted(_MEASURED_UNSUPPORTED & set(spec.metrics))
        if unsupported:
            raise UnsupportedMetricError(
                f"the 'strategy' engine cannot measure {unsupported} (they "
                "are Section 3 closed forms, served by method='analytic' for "
                "the synchronized scheme); no single engine serves a mix of "
                "measured and closed-form-only metrics — split them into two "
                "specs on the same system")

    # ------------------------------------------------------------------ tasks
    @staticmethod
    def _chunk_size(spec: StudySpec) -> int:
        chunk = int(spec.options.get("rep_chunk", DEFAULT_REP_CHUNK))
        if chunk < 1:
            raise ValueError(f"rep_chunk must be >= 1, got {chunk}")
        return chunk

    def _tasks_with_seeds(self, spec: StudySpec,
                          seeds: Sequence[int]) -> List[StrategyTask]:
        """Chunked tasks over *seeds*; one shared system dict per cell."""
        system = spec.system.to_dict()
        chunk = self._chunk_size(spec)
        return [StrategyTask(system=system,
                             seeds=tuple(seeds[lo:lo + chunk]))
                for lo in range(0, len(seeds), chunk)]

    def tasks(self, spec: StudySpec, ctx: ExecutionContext) -> List[StrategyTask]:
        """Chunked replication tasks, seeds spawned in the driver."""
        self.validate(spec)
        reps = ctx.reps_or(spec.effective_reps())
        seeds = [seed_to_int(seq) for seq in ctx.spawn_seeds(reps)]
        return self._tasks_with_seeds(spec, seeds)

    def cell_tasks(self, specs: Sequence[StudySpec], ctx: ExecutionContext
                   ) -> Tuple[List[StrategyTask], List[int]]:
        """Common random numbers across cells sharing one context.

        One seed block — as long as the largest cell budget — is spawned up
        front and sliced per cell, so replication ``r`` of every scheme runs
        on the same fault/interaction timeline.  (A cell evaluated on its own
        spawns the identical block from its own root seed, so single-cell and
        many-cell layouts agree wherever they overlap.)  Chunks never span
        cells: each cell's seed slice is chunked on its own, so the returned
        ``bounds`` delimit whole cells at chunk granularity.
        """
        for spec in specs:
            self.validate(spec)
        if not specs:
            return [], [0]
        budgets = [ctx.reps_or(spec.effective_reps()) for spec in specs]
        seeds = [seed_to_int(seq) for seq in ctx.spawn_seeds(max(budgets))]
        tasks: List[StrategyTask] = []
        bounds = [0]
        for spec, reps in zip(specs, budgets):
            tasks.extend(self._tasks_with_seeds(spec, seeds[:reps]))
            bounds.append(len(tasks))
        return tasks, bounds

    # ------------------------------------------------------------------ reduce
    def assemble(self, spec: StudySpec,
                 outputs: Sequence[Sequence[RunReport]]) -> Evaluation:
        import numpy as np

        # Each output is one chunk's report list; flattening in task order
        # restores the exact per-replication order of the unchunked layout.
        reports = [report for chunk in outputs for report in chunk]
        metrics: Dict[str, float] = {}
        for name in spec.metrics:
            if name in _SUM_METRICS:
                # recovery_lines_total: the integer total across the budget
                # (python sum, so it matches the pre-facade accumulation).
                metrics[name] = float(sum(r.recovery_lines_committed
                                          for r in reports))
                continue
            values = [REPORT_GETTERS[name](r) for r in reports]
            metrics[name] = float(np.mean(values))
            if len(values) > 1:
                metrics[f"stderr_{name}"] = float(
                    np.std(values, ddof=1) / math.sqrt(len(values)))
        return Evaluation(method=self.name, backend="recovery-runtime",
                          n_processes=spec.system.n, metrics=metrics,
                          n_samples=len(reports), rel_tol=spec.rel_tol)


def analytic_strategy_checks(spec: StudySpec) -> None:
    """Reject strategy specs outside the analytic engine's closed forms."""
    if spec.system.scheme != "synchronized":
        raise UnsupportedMetricError(
            f"the analytic engine has closed forms for the 'synchronized' "
            f"scheme only, got {spec.system.scheme!r}; measure other schemes "
            "with method='strategy'")
    unsupported = sorted(set(spec.metrics) - ANALYTIC_STRATEGY_METRICS)
    if unsupported:
        raise UnsupportedMetricError(
            f"the analytic engine cannot compute {unsupported} for a "
            f"strategy system; only {sorted(ANALYTIC_STRATEGY_METRICS)} have "
            "closed forms.  Measure the rest with method='strategy' — and if "
            "one spec mixes both families, split it into a measured spec and "
            "a closed-form spec on the same system")


def analytic_strategy_evaluation(spec: StudySpec) -> Evaluation:
    """Section 3 closed forms for a ``strategy`` spec (synchronized scheme).

    ``sync_loss`` is ``CL = n·E[Z] − Σ 1/μ_i`` and ``expected_wait`` is
    ``E[Z]``, both from :class:`~repro.analysis.synchronized_loss.
    SynchronizedLossModel` on the workload's (possibly spread) rates.
    """
    analytic_strategy_checks(spec)
    system = spec.system
    from repro.analysis.synchronized_loss import SynchronizedLossModel
    from repro.workloads.generators import spread_rates
    rates = spread_rates(int(system.args["n"]), float(system.args["mu"]),
                         float(system.args["mu_spread"]))
    model = SynchronizedLossModel(rates)
    metrics: Dict[str, float] = {}
    if spec.wants("sync_loss"):
        metrics["sync_loss"] = model.expected_loss()
    if spec.wants("expected_wait"):
        metrics["expected_wait"] = model.expected_wait()
    return Evaluation(method="analytic", backend="closed-form",
                      n_processes=system.n, metrics=metrics,
                      rel_tol=spec.rel_tol)


register_evaluator(StrategyEvaluator())
