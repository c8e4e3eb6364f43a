"""Admission batching: coalesce a burst of cells into one backend fan-out.

Pool dispatch has a fixed cost (task pickling, pool scheduling, result
collection), so a burst of 100 single-cell submissions paying it 100 times
would throw away exactly the economy a shared service exists to provide.
The :class:`AdmissionBatcher` group-commits: a cell admitted while no batch
runs goes out on the next loop turn with whatever else that turn admitted,
and cells admitted while a batch runs leave together as *one* batch when it
completes — no timer, so a lone miss never waits.

The batch itself runs through the package's one cell executor,
:func:`repro.api.execute.execute_cells` (re-exported here with
:class:`BatchCell` and :class:`ExecutedCell`): one ``backend.map`` per
engine-worker group, each cell planned exactly as a direct
:func:`repro.api.evaluate` call plans it, so batching re-routes *when* cells
execute, never *how* — served results are bit-identical to direct
evaluation and stored under the identical keys.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

# The pool's workers fork from the service, so every engine's worker-side
# modules load here, once, not in each worker on its first batch.  scipy is
# left out (it would cost every start ~0.2 s): the service imports it when
# it plans the first cell that calls it, and a worker forked before that
# imports it on its first such cell.
import repro.api.strategy  # noqa: F401
import repro.markov.montecarlo  # noqa: F401
import repro.markov.recovery_line_interval  # noqa: F401
import repro.markov.simplified  # noqa: F401
import repro.markov.split_chain  # noqa: F401
import repro.processes.communication  # noqa: F401
import repro.recovery  # noqa: F401
import repro.util.blas  # noqa: F401
import repro.workloads.generators  # noqa: F401
from repro.api.execute import BatchCell, ExecutedCell, execute_cells

__all__ = ["AdmissionBatcher", "BatchCell", "ExecutedCell", "execute_cells"]


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
