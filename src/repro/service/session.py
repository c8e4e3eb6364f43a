"""The evaluation service core: submissions in, shared results out.

:class:`EvaluationService` is the event-loop-side orchestrator behind both
the in-process :class:`ServiceClient` API and the HTTP front end
(:mod:`repro.service.server`).  A submission travels::

    submit ── per cell: resolve engine ── identity and key ── LRU probe
         │                                      (hot cells: a dict lookup)
         ├─ store probe          (every LRU miss: one off-loop call)
         │      then, in one loop turn, per store miss:
         ├─ single-flight join   (identical cell already computing)
         └─ admission batch      (leaders: the submission's misses leave
                  │               together, one fan-out)
                  └─ flush → execute_and_store in a worker thread
                           (execute_cells, then one put per cell under the
                            identity keyed at submit) → resolve futures

A single cell (:meth:`EvaluationService.submit_cell`) takes the same path.

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
``asyncio.to_thread``; the on-disk store tolerates that concurrency because
each object is renamed into place whole, with no shared index to guard.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.api.evaluation import Evaluation
from repro.api.evaluators import resolve_method
from repro.api.execute import cached_identity, execute_and_store
from repro.api.spec import StudySpec
from repro.report.store import ResultStore, StoreIdentity
from repro.runner.backends import ExecutionBackend, make_backend
from repro.service.batching import AdmissionBatcher, BatchCell
from repro.service.cache import CachedResult, ResultLRU
from repro.service.dedup import SingleFlight

__all__ = ["MAX_SUBMIT_CELLS", "EvaluationService", "ServiceClient",
           "StudyOutcome", "SubmitOutcome"]

#: Most cells one submission may expand to.  Every cell becomes a task on
#: the event loop, so a small body with wide sweep axes is refused before
#: any task exists; a larger study goes out as several submissions.
MAX_SUBMIT_CELLS = 4096


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
    identity: Optional[StoreIdentity]
    future: "asyncio.Future"


class EvaluationService:
    """Multi-tenant evaluation: dedup, cache, batch, then fan out once.

    Parameters
    ----------
    backend, workers:
        Execution backend for batch fan-outs (as in :func:`repro.evaluate`).
    store:
        ``None`` for a memory-only service, a directory path (opened as a
        :class:`~repro.report.store.ResultStore`, the store ``repro eval
        --store`` opens), or a ready store object exposing ``get``/``put``.
    lru_size:
        Hot-cell cache capacity (0 disables the LRU).
    max_batch:
        Flush immediately once this many cells are pending.
    """

    def __init__(self, backend: Union[str, ExecutionBackend, None] = None,
                 workers: Optional[int] = None,
                 store: Union[None, str, object] = None,
                 lru_size: int = 1024,
                 max_batch: int = 256) -> None:
        self.backend = make_backend(backend, workers)
        if isinstance(store, str):
            store = ResultStore(store)
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
        """Evaluate *spec*: a sweep expands to cells, submitted together.

        A spec of more than :data:`MAX_SUBMIT_CELLS` cells raises
        :class:`ValueError` (HTTP 400) before any cell is submitted.

        Submitting the cells together is what lets one tenant's sweep leave
        as a single backend fan-out — and lets many tenants' overlapping
        sweeps share flights instead of recomputing each other's cells.
        """
        if not isinstance(spec, StudySpec):
            spec = StudySpec.from_dict(spec)
        count = spec.cell_count()
        if count > MAX_SUBMIT_CELLS:
            raise ValueError(f"the spec expands to {count} cells; one "
                             f"submission may hold at most "
                             f"{MAX_SUBMIT_CELLS}")
        self.submissions += 1
        cells = await self._submit_cells(list(spec.cells()), method, force)
        return StudyOutcome(spec=spec, cells=cells)

    async def submit_cell(self, cell: StudySpec, method: str = "auto", *,
                          force: bool = False) -> SubmitOutcome:
        """Evaluate one cell: the one-cell case of :meth:`submit`."""
        [outcome] = await self._submit_cells([cell], method, force)
        return outcome

    async def _submit_cells(self, cells: List[StudySpec], method: str,
                            force: bool) -> List[SubmitOutcome]:
        """Serve *cells* from the LRU, one store probe, flights and one
        batch (the path the module docstring draws)."""
        batch = [BatchCell(spec=cell, method=resolve_method(cell, method))
                 for cell in cells]
        self.cells_submitted += len(batch)
        identities = [cached_identity(cell) for cell in batch]
        # Per cell: (source, its CachedResult or the flight to await).
        served: List[Optional[Tuple[str, object]]] = [None] * len(batch)
        missed = []
        for index, identity in enumerate(identities):
            if identity is None:    # seedless stochastic: no cache, no dedup
                continue
            if force:
                self.lru.invalidate(identity.key)
            elif (hit := self.lru.get(identity.key)) is not None:
                served[index] = ("lru", hit)
            else:
                missed.append(index)
        if missed and self.store is not None:
            records = await asyncio.to_thread(
                self._probe_store, [identities[i].key for i in missed])
            for index, record in zip(missed, records):
                if record is not None:
                    self.store_hits += 1
                    hit = CachedResult(key=record.key, result=record.result,
                                       elapsed_seconds=record.elapsed_seconds)
                    self.lru.put(hit)
                    served[index] = ("store", hit)
        loop = asyncio.get_running_loop()
        for index, identity in enumerate(identities):
            if served[index] is None:
                flight, leader = self.flights.lease(identity.key) \
                    if identity else (loop.create_future(), True)
                if leader:
                    self.batcher.admit(_Pending(batch[index], identity, flight))
                served[index] = ("computed" if leader else "inflight", flight)
        landed = iter(await asyncio.gather(
            *(asyncio.shield(entry) for _source, entry in served
              if isinstance(entry, asyncio.Future))))
        return [self._outcome(cell, identity, source,
                              next(landed) if isinstance(entry, asyncio.Future)
                              else entry)
                for cell, identity, (source, entry)
                in zip(batch, identities, served)]

    def _probe_store(self, keys: List[str]) -> list:
        """Each key's stored record, or ``None`` (run off-loop)."""
        return [self.store.get(key) for key in keys]

    def _outcome(self, cell: BatchCell, identity: Optional[StoreIdentity],
                 source: str, entry: CachedResult) -> SubmitOutcome:
        # rel_tol is a spec-side annotation excluded from the cell identity;
        # restamp the requesting spec's value, exactly as the facade does.
        evaluation = _dc_replace(Evaluation.from_experiment_result(entry.result),
                                 rel_tol=cell.spec.rel_tol)
        return SubmitOutcome(spec=cell.spec, method=cell.method,
                             key=identity.key if identity else None,
                             source=source,
                             elapsed_seconds=entry.elapsed_seconds,
                             evaluation=evaluation)

    # ------------------------------------------------------------- execution
    async def _flush(self, batch: List[_Pending]) -> None:
        """Execute one admitted batch off-loop and resolve its futures."""
        try:
            outcomes, dispatches = await asyncio.to_thread(
                execute_and_store, self.backend, [p.cell for p in batch],
                [p.identity for p in batch], self.store)
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
            key = pending.identity.key if pending.identity else None
            entry = CachedResult(key=key, result=outcome.result,
                                 elapsed_seconds=outcome.elapsed_seconds)
            if key is not None:
                self.lru.put(entry)
            if not pending.future.done():
                pending.future.set_result(entry)

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
