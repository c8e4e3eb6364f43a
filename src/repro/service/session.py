"""The evaluation service core: submissions in, shared results out.

:class:`EvaluationService` is the event-loop-side orchestrator behind both
the in-process :class:`ServiceClient` API and the HTTP front end
(:mod:`repro.service.server`).  A submitted cell travels::

    submit ── resolve engine ── canonical key
         │
         ├─ LRU probe            (hot cells: a dict lookup)
         ├─ store probe          (warm cells: one shard read, off-loop)
         ├─ single-flight join   (identical cell already computing)
         └─ admission batch      (leader: group commit into one fan-out)
                  │
                  └─ flush → execute_cells in a worker thread
                           → store.put per cell → resolve flight futures

Every layer is keyed by :meth:`StudySpec.canonical_key` — the same content
address the store uses — so the service's caches, the in-flight registry
and the on-disk store all agree about cell identity, and the result any
path serves is bit-identical to a direct :func:`repro.api.evaluate` call.

Seedless stochastic cells are the deliberate exception: two fresh-entropy
runs are different experiments, so they skip the LRU, the store and the
dedup registry (the same policy the runner applies) — but they still ride
the admission batch, so even an uncacheable burst costs one pool dispatch.

Threading model: all service state (LRU, flight registry, batcher,
counters) is confined to the event-loop thread.  Blocking work — store
reads, batch execution plus store writes — happens in worker threads via
``asyncio.to_thread``; the on-disk store tolerates that concurrency through
its per-shard index locks.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, List, Mapping, Optional, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import get_evaluator, resolve_method
from repro.api.spec import EVALUATE_SCENARIO_NAME, StudySpec
from repro.report.sharded import ShardedResultStore
from repro.runner.backends import ExecutionBackend, make_backend
from repro.service.batching import (AdmissionBatcher, BatchCell,
                                    ExecutedCell, execute_cells)
from repro.service.cache import CachedResult, ResultLRU
from repro.service.dedup import SingleFlight

__all__ = ["EvaluationService", "ServiceClient", "StudyOutcome",
           "SubmitOutcome"]


@dataclass(frozen=True)
class SubmitOutcome:
    """One evaluated cell, with how the service satisfied it.

    ``source`` names the layer that produced the result: ``"lru"`` /
    ``"store"`` for cache hits, ``"inflight"`` for submissions that joined
    another tenant's computation, ``"computed"`` for the flight leader (and
    for uncacheable seedless cells, which always compute).
    """

    spec: StudySpec
    method: str
    key: Optional[str]
    source: str
    elapsed_seconds: float
    evaluation: Evaluation


@dataclass(frozen=True)
class StudyOutcome:
    """What :meth:`EvaluationService.submit` returns: one outcome per cell."""

    spec: StudySpec
    cells: List[SubmitOutcome]

    @property
    def evaluations(self) -> List[Evaluation]:
        return [cell.evaluation for cell in self.cells]

    @property
    def cache_hits(self) -> int:
        return sum(cell.source in ("lru", "store") for cell in self.cells)


@dataclass
class _Pending:
    """One admitted cell awaiting the next batch flush."""

    cell: BatchCell
    key: Optional[str]
    future: "asyncio.Future"


class EvaluationService:
    """Multi-tenant evaluation: dedup, cache, batch, then fan out once.

    Parameters
    ----------
    backend, workers:
        Execution backend for batch fan-outs (as in :func:`repro.evaluate`).
    store:
        ``None`` for a memory-only service, a directory path (opened as a
        :class:`~repro.report.sharded.ShardedResultStore`, reading any
        pre-existing flat store through transparently), or a ready store
        object exposing ``get``/``put``.
    lru_size:
        Hot-cell cache capacity (0 disables the LRU).
    max_batch:
        Flush immediately once this many cells are pending.
    shards:
        Shard count when *store* is a path (``None`` = persisted/default).
    """

    def __init__(self, backend: Union[str, ExecutionBackend, None] = None,
                 workers: Optional[int] = None,
                 store: Union[None, str, object] = None,
                 lru_size: int = 1024,
                 max_batch: int = 256,
                 shards: Optional[int] = None) -> None:
        self.backend = make_backend(backend, workers)
        if isinstance(store, str):
            store = ShardedResultStore(store, shards=shards)
        self.store = store
        self.lru = ResultLRU(lru_size)
        self.flights = SingleFlight()
        self.batcher = AdmissionBatcher(self._flush, max_batch=max_batch)
        self.submissions = 0
        self.cells_submitted = 0
        self.cells_executed = 0
        self.dispatches = 0
        self.store_hits = 0
        self.errors = 0

    # ------------------------------------------------------------- submission
    async def submit(self, spec: Union[StudySpec, Mapping[str, object]],
                     method: str = "auto", *,
                     force: bool = False) -> StudyOutcome:
        """Evaluate *spec* (sweeps expand to cells, submitted concurrently).

        Concurrent cell submission is what lets one tenant's sweep coalesce
        into a single backend fan-out — and lets many tenants' overlapping
        sweeps share flights instead of recomputing each other's cells.
        """
        if not isinstance(spec, StudySpec):
            spec = StudySpec.from_dict(spec)
        self.submissions += 1
        cells = await asyncio.gather(
            *(self.submit_cell(cell, method, force=force)
              for cell in spec.cells()))
        return StudyOutcome(spec=spec, cells=list(cells))

    async def submit_cell(self, cell: StudySpec, method: str = "auto", *,
                          force: bool = False) -> SubmitOutcome:
        """Evaluate one cell through the dedup/LRU/store/batch stack."""
        resolved = resolve_method(cell, method)
        evaluator = get_evaluator(resolved)
        self.cells_submitted += 1
        # Seedless stochastic cells are fresh-entropy experiments: no key,
        # no cache, no dedup — each submission is its own computation.
        cacheable = (not evaluator.stochastic) or cell.seed is not None
        if not cacheable:
            entry = await self._compute(BatchCell(spec=cell, method=resolved),
                                        key=None)
            return self._outcome(cell, resolved, None, "computed", entry)
        key = cell.canonical_key(resolved)
        if force:
            self.lru.invalidate(key)
        else:
            hit = self.lru.get(key)
            if hit is not None:
                return self._outcome(cell, resolved, key, "lru", hit)
            if self.store is not None:
                record = await asyncio.to_thread(self.store.get, key,
                                                 EVALUATE_SCENARIO_NAME)
                if record is not None:
                    self.store_hits += 1
                    entry = CachedResult(key=key, result=record.result,
                                         elapsed_seconds=record.elapsed_seconds)
                    self.lru.put(entry)
                    return self._outcome(cell, resolved, key, "store", entry)
        flight, leader = self.flights.lease(key)
        if not leader:
            entry = await asyncio.shield(flight)
            return self._outcome(cell, resolved, key, "inflight", entry)
        entry = await self._compute(BatchCell(spec=cell, method=resolved),
                                    key=key, flight=flight)
        return self._outcome(cell, resolved, key, "computed", entry)

    def _outcome(self, cell: StudySpec, method: str, key: Optional[str],
                 source: str, entry: CachedResult) -> SubmitOutcome:
        # rel_tol is a spec-side annotation excluded from the cell identity;
        # restamp the requesting spec's value, exactly as the facade does.
        evaluation = _dc_replace(Evaluation.from_experiment_result(entry.result),
                                 rel_tol=cell.rel_tol)
        return SubmitOutcome(spec=cell, method=method, key=key, source=source,
                             elapsed_seconds=entry.elapsed_seconds,
                             evaluation=evaluation)

    async def _compute(self, cell: BatchCell, key: Optional[str],
                       flight: Optional["asyncio.Future"] = None
                       ) -> CachedResult:
        """Admit *cell* for the next batch flush and await its result."""
        if flight is None:
            flight = asyncio.get_running_loop().create_future()
        self.batcher.admit(_Pending(cell=cell, key=key, future=flight))
        return await asyncio.shield(flight)

    # ------------------------------------------------------------- execution
    async def _flush(self, batch: List[_Pending]) -> None:
        """Execute one admitted batch off-loop and resolve its futures."""
        try:
            outcomes, dispatches = await asyncio.to_thread(
                self._execute_and_store, [p.cell for p in batch],
                [p.key for p in batch])
        except Exception as exc:                      # defensive: whole batch
            outcomes, dispatches = [exc] * len(batch), 0
        self.dispatches += dispatches
        for pending, outcome in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                self.errors += 1
                if not pending.future.done():
                    pending.future.set_exception(outcome)
                continue
            self.cells_executed += 1
            entry = CachedResult(key=pending.key, result=outcome.result,
                                 elapsed_seconds=outcome.elapsed_seconds)
            if pending.key is not None:
                self.lru.put(entry)
            if not pending.future.done():
                pending.future.set_result(entry)

    def _execute_and_store(self, cells: List[BatchCell],
                           keys: List[Optional[str]]):
        """Worker-thread body: one fan-out, then persist the cacheable cells.

        Store writes happen here — off the event loop, under the store's
        per-shard index locks — using the *canonical* cell identity, so the
        service writes byte-identical records under byte-identical keys to
        what a direct store-attached ``evaluate`` call writes.
        """
        outcomes, dispatches = execute_cells(self.backend, cells)
        if self.store is not None:
            described = self.backend.describe()
            for cell, key, outcome in zip(cells, keys, outcomes):
                if key is None or not isinstance(outcome, ExecutedCell):
                    continue
                reps = cell.spec.effective_reps() \
                    if get_evaluator(cell.method).stochastic else None
                self.store.put(EVALUATE_SCENARIO_NAME,
                               cell.spec.cell_params(cell.method),
                               cell.spec.seed, reps, backend=described,
                               elapsed_seconds=outcome.elapsed_seconds,
                               result=outcome.result)
        return outcomes, dispatches

    # ------------------------------------------------------------- lifecycle
    async def drain(self) -> None:
        """Wait for in-flight work to land (admitted cells always flush)."""
        while len(self.flights):
            await asyncio.gather(*self.flights.pending(),
                                 return_exceptions=True)

    def stats(self) -> Dict[str, object]:
        """One JSON-able snapshot of every layer's counters."""
        dedup = self.flights.stats()
        total = self.cells_submitted
        served_without_compute = (self.lru.hits + self.store_hits
                                  + dedup["joined"])
        return {
            "submissions": self.submissions,
            "cells_submitted": total,
            "cells_executed": self.cells_executed,
            "dispatches": self.dispatches,
            "store_hits": self.store_hits,
            "errors": self.errors,
            "dedup_hit_rate": (served_without_compute / total) if total
            else 0.0,
            "backend": self.backend.describe(),
            "store": getattr(self.store, "root", None),
            "lru": self.lru.stats(),
            "dedup": dedup,
            "batching": self.batcher.stats(),
        }


class ServiceClient:
    """In-process async client: one tenant's handle onto a shared service.

    The client is intentionally thin — cell identity, caching and dedup all
    live in the service — but it keeps per-tenant counters so a multi-tenant
    test (or the stats endpoint) can show who asked for what.
    """

    def __init__(self, service: EvaluationService,
                 tenant: str = "local") -> None:
        self.service = service
        self.tenant = str(tenant)
        self.submitted = 0

    async def submit(self, spec: Union[StudySpec, Mapping[str, object]],
                     method: str = "auto", *,
                     force: bool = False) -> StudyOutcome:
        self.submitted += 1
        return await self.service.submit(spec, method, force=force)
