"""Admission batching: coalesce a burst of cells into one backend fan-out.

Pool dispatch has a fixed cost (task pickling, pool scheduling, result
collection), so a burst of 100 single-cell submissions paying it 100 times
would throw away exactly the economy a shared service exists to provide.
The :class:`AdmissionBatcher` group-commits: a cell admitted while no batch
runs goes out on the next loop turn with whatever else that turn admitted,
and cells admitted while a batch runs leave together as *one* batch when it
completes — no timer, so a lone miss never waits.  The batch executor,
:func:`execute_cells`, then groups the batch by engine worker function and
issues **one ``backend.map`` per group** — a burst of analytic cells costs
one dispatch, a mixed mc/des burst costs one (they share a worker), and a
strategy burst costs one more.

Bit-identity contract
---------------------
Batching re-routes *when* cells execute, never *how*.  Each cell gets its
own :class:`~repro.runner.runner.ExecutionContext` seeded with its own root
seed, its tasks are built by the very evaluator methods the facade uses
(driver-spawned seeds, fixed shard layout), and only the resulting task
lists are concatenated into the shared map — backends return results in
task order, so slicing the outputs per cell reproduces exactly what a
direct :func:`repro.api.evaluate` call computes.  Stochastic cells round
their spec through :meth:`StudySpec.cell_params` first, mirroring the
runner's internal ``evaluate`` scenario; deterministic cells reuse the
facade's own worker payloads.  The per-cell results are therefore
bit-identical to direct evaluation, and they are stored under the identical
keys.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.evaluators import get_evaluator
from repro.api.facade import (_DeterministicCell,
                              _evaluate_deterministic_cell_timed)
from repro.api.spec import StudySpec
from repro.experiments.common import ExperimentResult
from repro.runner import ExecutionContext
from repro.runner.backends import ExecutionBackend

__all__ = ["AdmissionBatcher", "BatchCell", "ExecutedCell", "execute_cells"]


@dataclass(frozen=True)
class BatchCell:
    """One admitted cell: a single-cell spec plus its resolved engine."""

    spec: StudySpec
    method: str


@dataclass(frozen=True)
class ExecutedCell:
    """One executed cell in the store's currency (result-row encoding)."""

    result: ExperimentResult
    elapsed_seconds: float


def _stochastic_study(cell: BatchCell) -> StudySpec:
    """The spec the runner's ``evaluate`` scenario would reconstruct.

    The facade ships stochastic cells through their canonical
    ``cell_params`` payload (seed/reps stripped into runner slots,
    execution-tuning options dropped) and the scenario rebuilds the spec
    from that dict.  Reproducing the round trip here keeps the assembled
    evaluation — including defaulted annotation fields — byte-identical.
    """
    return StudySpec.from_dict(cell.spec.cell_params(cell.method)["spec"])


def execute_cells(backend: ExecutionBackend, cells: Sequence[BatchCell]
                  ) -> Tuple[List[Union[ExecutedCell, Exception]], int]:
    """Execute *cells* with one ``backend.map`` per engine-worker group.

    Returns ``(outcomes, dispatches)`` where ``outcomes[i]`` corresponds to
    ``cells[i]`` — an :class:`ExecutedCell`, or the exception that cell's
    group (or its own assembly) raised — and ``dispatches`` counts the
    ``backend.map`` calls issued.  A failing group poisons only its own
    cells; other groups still execute.
    """
    outcomes: List[Optional[Union[ExecutedCell, Exception]]] = \
        [None] * len(cells)
    # Group by the engine's worker function (mc and des share one), in
    # first-appearance order so execution order is deterministic.
    groups: Dict[object, List[int]] = {}
    for index, cell in enumerate(cells):
        try:
            evaluator = get_evaluator(cell.method)
        except KeyError as exc:                     # bad cell, not bad batch
            outcomes[index] = exc
            continue
        worker = _evaluate_deterministic_cell_timed \
            if not evaluator.stochastic else evaluator.worker
        groups.setdefault(worker, []).append(index)
    dispatches = 0
    for worker, indices in groups.items():
        if worker is _evaluate_deterministic_cell_timed:
            dispatches += _run_deterministic_group(backend, cells, indices,
                                                  outcomes)
        else:
            dispatches += _run_stochastic_group(backend, worker, cells,
                                                indices, outcomes)
    return [out if out is not None
            else RuntimeError("cell was never executed")        # unreachable
            for out in outcomes], dispatches


def _run_deterministic_group(backend: ExecutionBackend,
                             cells: Sequence[BatchCell],
                             indices: Sequence[int],
                             outcomes: List) -> int:
    """One map over the facade's deterministic worker payloads."""
    payloads = [_DeterministicCell(spec=cells[i].spec, method=cells[i].method)
                for i in indices]
    try:
        results = backend.map(_evaluate_deterministic_cell_timed, payloads)
    except Exception as exc:                        # poison this group only
        for i in indices:
            outcomes[i] = exc
        return 1
    for i, (evaluation, elapsed) in zip(indices, results):
        outcomes[i] = ExecutedCell(result=evaluation.to_experiment_result(),
                                   elapsed_seconds=elapsed)
    return 1


def _run_stochastic_group(backend: ExecutionBackend, worker,
                          cells: Sequence[BatchCell],
                          indices: Sequence[int],
                          outcomes: List) -> int:
    """Per-cell contexts and task lists, one shared map, per-cell assembly."""
    tasks: List[object] = []
    bounds: List[Tuple[int, int, int, StudySpec]] = []  # (cell, lo, hi, study)
    for i in indices:
        cell = cells[i]
        evaluator = get_evaluator(cell.method)
        try:
            study = _stochastic_study(cell)
            # The cell's own root seed and resolved budget — exactly the
            # context the runner would build for its single-cell run.
            ctx = ExecutionContext(backend=backend, seed=cell.spec.seed,
                                   reps=cell.spec.effective_reps())
            cell_tasks = evaluator.tasks(study, ctx)
        except Exception as exc:                    # bad cell, not bad batch
            outcomes[i] = exc
            continue
        bounds.append((i, len(tasks), len(tasks) + len(cell_tasks), study))
        tasks.extend(cell_tasks)
    if not bounds:
        return 0
    start = time.perf_counter()
    try:
        output = backend.map(worker, tasks)
    except Exception as exc:
        for i, _lo, _hi, _study in bounds:
            outcomes[i] = exc
        return 1
    map_wall = time.perf_counter() - start
    for i, lo, hi, study in bounds:
        evaluator = get_evaluator(cells[i].method)
        # Provenance only: the shared map's wall time is attributed to the
        # cell in proportion to its task count (plus its own assembly).
        share = map_wall * (hi - lo) / max(1, len(tasks))
        assemble_start = time.perf_counter()
        try:
            evaluation = evaluator.assemble(study, output[lo:hi])
        except Exception as exc:
            outcomes[i] = exc
            continue
        elapsed = share + (time.perf_counter() - assemble_start)
        outcomes[i] = ExecutedCell(result=evaluation.to_experiment_result(),
                                   elapsed_seconds=elapsed)
    return 1


class AdmissionBatcher:
    """Group commit: admitted entries flush as one batch per free flush slot.

    An admission made while no flush runs schedules one for the next loop
    turn, so everything admitted in the same turn (a sweep's cells, a burst
    of tenants) shares it.  Admissions made while a flush runs accumulate
    and go out as one follow-up flush the moment it completes.  Reaching
    ``max_batch`` flushes at once.  ``flush`` is an async callable receiving
    the drained entry list — the service's flush coroutine, which executes
    the batch in a worker thread and resolves the entries' futures.  Entries
    are opaque to the batcher (it never looks inside them).
    """

    def __init__(self, flush: Callable[[List[object]], "asyncio.Future"],
                 max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._flush = flush
        self.max_batch = int(max_batch)
        self._pending: List[object] = []
        self._running: "set[asyncio.Task]" = set()
        self.batches = 0
        self.admitted = 0
        self.occupancy_total = 0

    def __len__(self) -> int:
        return len(self._pending)

    def admit(self, entry: object) -> None:
        """Queue *entry*; with no flush running, flush on the next turn."""
        self._pending.append(entry)
        self.admitted += 1
        if len(self._pending) >= self.max_batch:
            self._fire()
        elif len(self._pending) == 1 and not self._running:
            asyncio.get_running_loop().call_soon(self._fire_when_idle)

    def _fire(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches += 1
        self.occupancy_total += len(batch)
        task = asyncio.ensure_future(self._flush(batch))
        self._running.add(task)
        task.add_done_callback(self._fire_when_idle)

    def _fire_when_idle(self, done: Optional["asyncio.Task"] = None) -> None:
        """Flush pending entries unless a flush runs (it calls this later)."""
        self._running.discard(done)
        if not self._running:
            self._fire()

    def stats(self) -> Dict[str, float]:
        occupancy = (self.occupancy_total / self.batches) if self.batches \
            else 0.0
        return {"admitted": self.admitted, "batches": self.batches,
                "pending": len(self._pending),
                "mean_occupancy": occupancy}
