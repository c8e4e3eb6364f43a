"""The one front door: ``repro.evaluate(spec, method=...)``.

The facade composes the pieces the rest of the package already provides —
the declarative :class:`~repro.api.spec.StudySpec`, the engine registry of
:mod:`repro.api.evaluators` and the cell executor of
:mod:`repro.api.execute` — into a single entry point:

* ``method="auto"`` resolves to an engine by state-space size and requested
  metrics (:func:`~repro.api.evaluators.resolve_method`);
* sweep axes expand into grid cells; an attached
  :class:`~repro.report.store.ResultStore` serves cells already evaluated
  under the same :meth:`StudySpec.canonical_key`, so interrupted sweeps
  resume;
* the misses run through the executor — deterministic misses in one
  backend ``map``, each stochastic miss with its shards fanned through the
  backend — so ``backend="process"`` parallelises a sweep end to end with
  bit-identical results.

Scenario code that already *has* an :class:`ExecutionContext` (it is being
run by the runner) uses :func:`evaluate_in_context` instead, which flattens
the shards of many cells into one backend ``map`` — the same task layout the
pre-facade experiment modules used, which is what keeps their stored results
bit-identical across the migration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import get_evaluator, load_engine, resolve_method
from repro.api.execute import (BatchCell, cached_identity,
                               execute_and_store, map_cells)
from repro.api.spec import StudySpec
from repro.bench import phase as _phase
from repro.experiments.common import ExperimentResult
from repro.runner.backends import (ExecutionBackend, ExecutionContext,
                                   make_backend)

__all__ = ["CellResult", "StudyResult", "evaluate", "evaluate_in_context",
           "evaluate_record"]


# --------------------------------------------------------------------- results
@dataclass(frozen=True)
class CellResult:
    """One evaluated sweep cell, with its provenance."""

    spec: StudySpec
    evaluation: Evaluation
    method: str
    cached: bool
    key: Optional[str]
    elapsed_seconds: float


@dataclass(frozen=True)
class StudyResult:
    """What :func:`evaluate` returns for a sweep spec."""

    spec: StudySpec
    cells: List[CellResult]

    @property
    def evaluations(self) -> List[Evaluation]:
        return [cell.evaluation for cell in self.cells]

    @property
    def cache_hits(self) -> int:
        return sum(cell.cached for cell in self.cells)

    def to_experiment_result(self) -> ExperimentResult:
        """Tabulate the sweep: one row per cell, scalar metrics as columns."""
        axes = list(self.spec.sweep)
        scalar_columns: List[str] = []
        for cell in self.cells:
            for name in cell.evaluation.metrics:
                if name not in scalar_columns:
                    scalar_columns.append(name)
        result = ExperimentResult(
            name="api_study_sweep",
            paper_reference="repro.api facade sweep",
            columns=scalar_columns,
            notes=f"sweep axes: {', '.join(axes)}" if axes else "",
        )
        for cell in self.cells:
            label = _cell_label(self.spec, cell.spec) + f" [{cell.method}]"
            values = {name: cell.evaluation.metrics.get(name, float("nan"))
                      for name in scalar_columns}
            result.add_row(label, **values)
        return result


def _cell_label(parent: StudySpec, cell: StudySpec) -> str:
    """Human label of a cell: the swept axis values that identify it."""
    parts = []
    for axis in parent.sweep:
        if axis == "reps":
            parts.append(f"reps={cell.effective_reps()}")
        elif axis == "seed":
            parts.append(f"seed={cell.seed}")
        else:
            value = cell.system.args.get(axis)
            parts.append(f"{axis}={value:g}" if isinstance(value, float)
                         else f"{axis}={value}")
    return ", ".join(parts) if parts else "cell"


# --------------------------------------------------------------------- facade
def evaluate(spec: Union[StudySpec, Mapping[str, object]],
             method: str = "auto", *,
             backend=None, workers: Optional[int] = None,
             store=None, force: bool = False
             ) -> Union[Evaluation, StudyResult]:
    """Evaluate a study spec (or its dict form) through one entry point.

    Parameters
    ----------
    spec:
        A :class:`StudySpec` or its :meth:`~StudySpec.to_dict` payload (the
        JSON form ``python -m repro eval`` reads from a file).
    method:
        ``"auto"`` (select by system kind, state-space size and metrics),
        ``"analytic"``, ``"mc"``, ``"des"``, or — for ``strategy`` systems —
        ``"strategy"`` (measure a recovery scheme by running its runtime).
    backend / workers:
        Execution backend for the stochastic shards and sweep cells (same
        semantics as everywhere else: results are backend independent).
    store:
        Optional :class:`~repro.report.store.ResultStore` (or path); cells
        already evaluated under the same canonical key are reloaded, not
        recomputed — interrupted sweeps resume.
    force:
        Recompute even on a cache hit (the result is re-written through).

    Returns
    -------
    A single :class:`Evaluation` for a plain spec, a :class:`StudyResult`
    for a spec with sweep axes.  (:func:`evaluate_record` always returns the
    :class:`StudyResult` form, with per-cell cache provenance.)
    """
    result = evaluate_record(spec, method, backend=backend, workers=workers,
                             store=store, force=force)
    if not result.spec.is_sweep:
        return result.cells[0].evaluation
    return result


def evaluate_record(spec: Union[StudySpec, Mapping[str, object]],
                    method: str = "auto", *,
                    backend=None, workers: Optional[int] = None,
                    store=None, force: bool = False) -> StudyResult:
    """Like :func:`evaluate`, but always return the full :class:`StudyResult`
    — one :class:`CellResult` per cell with cache status and store key.

    Deterministic misses are deduplicated by key (a reps axis, say, which
    their results ignore) and go out in one executor call, so an analytic
    sweep with ``backend="process"`` computes its grid cells concurrently.
    Each stochastic miss runs, shards fanned through the backend, and is
    written before the next starts, so an interrupted sweep resumes from
    its finished cells.  A backend built here from a name is closed here.
    """
    if not isinstance(spec, StudySpec):
        spec = StudySpec.from_dict(spec)
    if isinstance(store, str):
        from repro.report.store import ResultStore
        store = ResultStore(store)
    owned = not isinstance(backend, ExecutionBackend)
    backend = make_backend(backend, workers)
    try:
        return StudyResult(spec=spec, cells=_evaluate_cells(
            spec, method, backend, store, force))
    finally:
        if owned:
            backend.close()


def _evaluate_cells(spec: StudySpec, method: str, backend, store,
                    force: bool) -> List[CellResult]:
    """Probe, dedup, execute and store the cells of *spec*, in cell order."""

    def run(indices: List[int]) -> List:
        return _raise_first(execute_and_store(
            backend, [cells[i] for i in indices],
            [identities[i] for i in indices], store)[0])

    def result(cell: BatchCell, key, record, cached: bool) -> CellResult:
        """rel_tol is a spec-side annotation excluded from the cell identity,
        so the *requesting* spec's value — not whatever the stored payload
        carries — is what the caller declared."""
        evaluation = record.evaluation if not cached \
            else Evaluation.from_experiment_result(record.result)
        return CellResult(spec=cell.spec,
                          evaluation=_dc_replace(evaluation,
                                                 rel_tol=cell.spec.rel_tol),
                          method=cell.method, cached=cached,
                          key=key if store is not None else None,
                          elapsed_seconds=record.elapsed_seconds)

    cells = [BatchCell(study, resolve_method(study, method))
             for study in spec.cells()]
    results: List[Optional[CellResult]] = []
    identities = []
    deferred: Dict[str, List[int]] = {}     # deterministic misses by key
    for index, cell in enumerate(cells):
        # A lone cell without a store needs no key (nothing to dedup).
        identity = cached_identity(cell) \
            if store is not None or spec.is_sweep else None
        identities.append(identity)
        key = identity.key if identity is not None else None
        hit = None
        if store is not None and key is not None and not force:
            with _phase("store"):
                hit = store.get(key)
        if hit is not None:
            results.append(result(cell, key, hit, cached=True))
        elif get_evaluator(cell.method).stochastic:
            [executed] = run([index])
            results.append(result(cell, key, executed, cached=False))
        else:
            results.append(None)
            deferred.setdefault(key, []).append(index)
    if deferred:
        firsts = run([indices[0] for indices in deferred.values()])
        for (key, indices), executed in zip(deferred.items(), firsts):
            for index in indices:
                results[index] = result(cells[index], key, executed,
                                        cached=False)
    return results


# ----------------------------------------------------------------- in-context
def evaluate_in_context(ctx: ExecutionContext,
                        specs: Iterable[StudySpec],
                        method: str = "analytic") -> List[Evaluation]:
    """Evaluate many cells inside an already-running scenario.

    All cells must resolve to the *same* engine.  Deterministic cells are
    fanned out one-per-task; stochastic cells contribute their work items —
    laid out by the engine's :meth:`~repro.api.evaluators.Evaluator.
    cell_tasks` — to a single flat backend ``map``.  For ``mc``/``des`` that
    is the fixed-size shard stream of
    :func:`repro.experiments.sampling.sample_interval_cases` (seeds spawned
    per cell, in cell order); the ``strategy`` engine instead shares one
    replication seed block across the cells (common random numbers), the
    pre-facade strategy-comparison layout.
    """
    specs = list(specs)
    if not specs:
        return []
    names = {resolve_method(s, method) for s in specs}
    if len(names) != 1:
        raise ValueError(f"evaluate_in_context needs one engine per call, "
                         f"got {sorted(names)}")
    resolved = names.pop()
    for spec in specs:
        load_engine(resolved, spec)
    cells = [BatchCell(s, resolved) for s in specs]
    evaluator = get_evaluator(resolved)
    if evaluator.stochastic:
        tasks, bounds = evaluator.cell_tasks(specs, ctx)
    else:
        tasks, bounds = cells, list(range(len(cells) + 1))
    return [evaluation for evaluation, _elapsed in
            _raise_first(map_cells(ctx.backend, cells, tasks, bounds))]


def _raise_first(outcomes: List) -> List:
    """*outcomes*, unless one is an exception: then raise the first."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
