"""The one cell executor: plan → map → assemble → store.

Every number the package serves for a study cell comes from the same four
steps, and this module is the only place that takes them:

1. **plan** — the engine's modules load
   (:func:`~repro.api.evaluators.load_engine`; a store hit never gets
   here, so it loads no engine); a deterministic cell is its own task
   (:class:`BatchCell` is the worker payload); a stochastic cell gets its own
   :class:`~repro.runner.runner.ExecutionContext` seeded with the cell's
   root seed and resolved budget, and its engine's
   :meth:`~repro.api.evaluators.Evaluator.tasks` spawns the shard seeds in
   the driver;
2. **map** — the tasks of every cell sharing an engine worker go through
   one ``backend.map`` (``mc`` and ``des`` share one worker);
3. **assemble** — each cell's slice of the outputs becomes its
   :class:`~repro.api.evaluation.Evaluation` (encoded as result rows only
   when the store or the service cache reads them);
4. **store** — :func:`execute_and_store` writes each cacheable cell under
   the identity its caller keyed it with (:func:`cached_identity`).

:func:`repro.api.evaluate_record` probes the store, dedups, and calls
:func:`execute_and_store`; :func:`repro.api.evaluate_in_context` keeps its
shared-context task layout and calls :func:`map_cells`; the service's batch
flush is one :func:`execute_and_store` call.

Bit identity
------------
Backends return results in task order and every cell's seeds come from its
own root, so slicing a shared map's outputs reproduces a single-cell
evaluation exactly, whatever else rode in the batch.  A stochastic cell is
planned from its store identity (:meth:`StudySpec.cell_params`: seed, reps,
``rel_tol`` and execution-tuning options stripped), the payload the
registered ``evaluate`` scenario rebuilds its spec from.  That keeps the
stored record independent of who asked: two requesters that differ only in
``rel_tol`` share a key, and they also share the bytes under it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import get_evaluator, load_engine
from repro.api.spec import EVALUATE_SCENARIO_NAME, StudySpec
from repro.bench import phase as _phase
from repro.experiments.common import ExperimentResult
from repro.report.store import StoreIdentity, store_identity
from repro.runner import ExecutionContext
from repro.runner.backends import ExecutionBackend

__all__ = ["BatchCell", "ExecutedCell", "cached_identity", "cell_identity",
           "execute_and_store", "execute_cells", "map_cells"]

Outcome = Union["ExecutedCell", Exception]


@dataclass(frozen=True)
class BatchCell:
    """One cell to execute: a single-cell spec plus its resolved engine.

    Also the deterministic engines' worker payload: specs are frozen
    dataclasses, so a cell crosses the process boundary as it is.
    """

    spec: StudySpec
    method: str


@dataclass(frozen=True)
class ExecutedCell:
    """One executed cell: its ``evaluation`` and compute time."""

    evaluation: Evaluation
    elapsed_seconds: float

    @cached_property
    def result(self) -> ExperimentResult:
        """The evaluation in the store's currency (result-row encoding),
        encoded on first read: only a store ``put`` or a service cache entry
        needs it."""
        return self.evaluation.to_experiment_result()


def cell_identity(cell: BatchCell) -> StoreIdentity:
    """The cell's store identity: canonical params, seed, reps and key.

    Deterministic results ignore the budget, so their reps slot is ``None``.
    """
    stochastic = get_evaluator(cell.method).stochastic
    return store_identity(EVALUATE_SCENARIO_NAME,
                          cell.spec.cell_params(cell.method), cell.spec.seed,
                          cell.spec.effective_reps() if stochastic else None)


def cached_identity(cell: BatchCell) -> Optional[StoreIdentity]:
    """:func:`cell_identity`, or ``None`` for a seedless stochastic cell:
    two fresh-entropy runs are different experiments, so such a cell is
    never cached and never deduplicated."""
    if cell.spec.seed is None and get_evaluator(cell.method).stochastic:
        return None
    return cell_identity(cell)


def _evaluate_deterministic(cell: BatchCell) -> Tuple[Evaluation, float]:
    """Worker entry point: one deterministic cell and its compute time.

    Timing happens in the worker so store provenance records the cell's own
    compute time, not the batch's.
    """
    start = time.perf_counter()
    evaluation = get_evaluator(cell.method).evaluate(cell.spec)
    return evaluation, time.perf_counter() - start


def _worker(method: str):
    """The function the backend maps over *method*'s tasks."""
    evaluator = get_evaluator(method)
    return evaluator.worker if evaluator.stochastic \
        else _evaluate_deterministic


def _plan(cell: BatchCell, backend: ExecutionBackend
          ) -> Tuple[BatchCell, List[object]]:
    """The cell to assemble against, and its tasks.

    Planning loads the engine (:func:`load_engine`), so its imports land in
    the ``import`` phase and happen once in the driver, before any map.
    """
    load_engine(cell.method, cell.spec)
    evaluator = get_evaluator(cell.method)
    if not evaluator.stochastic:
        return cell, [cell]
    study = StudySpec.from_dict(cell.spec.cell_params(cell.method)["spec"])
    ctx = ExecutionContext(backend=backend, seed=cell.spec.seed,
                           reps=cell.spec.effective_reps())
    with _phase("assembly"):
        return BatchCell(study, cell.method), evaluator.tasks(study, ctx)


def map_cells(backend: ExecutionBackend, cells: Sequence[BatchCell],
              tasks: Sequence[object], bounds: Sequence[int]
              ) -> List[Union[Tuple[Evaluation, float], Exception]]:
    """One ``backend.map`` over the tasks of cells sharing an engine worker.

    Cell ``i`` owns ``outputs[bounds[i]:bounds[i + 1]]``.  Returns, per
    cell, ``(evaluation, elapsed seconds)`` or the exception the map (every
    cell) or its own assembly (that cell only) raised.
    """
    stochastic = get_evaluator(cells[0].method).stochastic
    start = time.perf_counter()
    try:
        # Deterministic engines time their own assembly/solve in the worker.
        with _phase("sim") if stochastic else nullcontext():
            outputs = backend.map(_worker(cells[0].method), list(tasks))
    except Exception as exc:
        return [exc] * len(cells)
    if not stochastic:
        return list(outputs)
    map_wall = time.perf_counter() - start
    results: List[Union[Tuple[Evaluation, float], Exception]] = []
    for cell, lo, hi in zip(cells, bounds, bounds[1:]):
        assemble_start = time.perf_counter()
        try:
            with _phase("reduce"):
                evaluation = get_evaluator(cell.method).assemble(
                    cell.spec, outputs[lo:hi])
        except Exception as exc:
            results.append(exc)
            continue
        # Provenance only: the shared map's wall time is attributed to the
        # cell in proportion to its task count, plus its own assembly.
        share = map_wall * (hi - lo) / max(1, len(tasks))
        results.append((evaluation,
                        share + time.perf_counter() - assemble_start))
    return results


def execute_cells(backend: ExecutionBackend, cells: Sequence[BatchCell]
                  ) -> Tuple[List[Outcome], int]:
    """Execute *cells* with one ``backend.map`` per engine-worker group.

    Returns ``(outcomes, dispatches)``: ``outcomes[i]`` is ``cells[i]``'s
    :class:`ExecutedCell` or the exception its planning, its group's map or
    its own assembly raised, and ``dispatches`` counts the maps issued.  A
    failure poisons only the cells it belongs to.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(cells)
    # Grouped in first-appearance order, so execution order is fixed.
    groups: Dict[object, List[Tuple[int, BatchCell, List[object]]]] = {}
    for index, cell in enumerate(cells):
        try:
            worker = _worker(cell.method)
            planned, tasks = _plan(cell, backend)
        except Exception as exc:                    # bad cell, not bad batch
            outcomes[index] = exc
            continue
        groups.setdefault(worker, []).append((index, planned, tasks))
    for members in groups.values():
        tasks: List[object] = []
        bounds = [0]
        for _index, _planned, cell_tasks in members:
            tasks.extend(cell_tasks)
            bounds.append(len(tasks))
        mapped = map_cells(backend, [planned for _i, planned, _t in members],
                           tasks, bounds)
        for (index, _planned, _tasks), result in zip(members, mapped):
            outcomes[index] = result if isinstance(result, Exception) \
                else ExecutedCell(evaluation=result[0],
                                  elapsed_seconds=result[1])
    return outcomes, len(groups)


def execute_and_store(backend: ExecutionBackend, cells: Sequence[BatchCell],
                      identities: Sequence[Optional[StoreIdentity]],
                      store=None) -> Tuple[List[Outcome], int]:
    """:func:`execute_cells`, then write every executed cell that has an
    identity (``identities[i]`` is ``cells[i]``'s) under it: one ``put``
    per cell.  A write that raises becomes that cell's outcome and leaves
    the other cells' writes alone.
    """
    outcomes, dispatches = execute_cells(backend, cells)
    if store is None:
        return outcomes, dispatches
    described = backend.describe()
    for index, (identity, outcome) in enumerate(zip(identities, outcomes)):
        if identity is None or isinstance(outcome, Exception):
            continue
        try:
            with _phase("store"):
                store.put(identity, backend=described,
                          elapsed_seconds=outcome.elapsed_seconds,
                          result=outcome.result)
        except Exception as exc:
            outcomes[index] = exc
    return outcomes, dispatches
