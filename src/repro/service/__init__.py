"""Async multi-tenant evaluation service (``repro.service``).

One shared front end over the facade, for the moment when a study stops
being one researcher's script and becomes a team's shared workload: many
clients submitting overlapping :class:`~repro.api.spec.StudySpec` cells,
where naive per-client evaluation recomputes the same cells over and over
and pays a pool dispatch per cell.  The service collapses that:

``dedup``
    :class:`SingleFlight` — N concurrent identical submissions (same
    :meth:`~repro.api.spec.StudySpec.canonical_key`) share one backend
    execution; everyone gets the same stored result.
``cache``
    :class:`ResultLRU` — hot cells stay resident in front of the store, so
    repeat submissions cost a dict probe instead of a disk read.
``batching``
    :class:`AdmissionBatcher` / :func:`execute_cells` — group commit: a
    burst of distinct cells admitted in one loop turn, or while a batch
    runs, coalesces into a single backend ``map`` per engine worker,
    bit-identical to cell-at-a-time evaluation.
``session``
    :class:`EvaluationService` (the orchestrating core) and
    :class:`ServiceClient` (the in-process async client API).
``server``
    :class:`EvaluationServer` — the HTTP/JSON front end on raw asyncio
    streams (stdlib only) behind ``python -m repro serve``, plus
    :class:`ServiceHTTPClient`.

Persistence goes through :class:`~repro.report.store.ResultStore`, the
store ``repro eval --store`` opens: one atomically renamed object per cell,
with no index or lock, so concurrent batch flushes never serialise, and a
cell the service stored is a hit for the CLI (and the reverse).

Quickstart (in-process)
-----------------------
>>> import asyncio
>>> from repro.service import EvaluationService, ServiceClient
>>> from repro.api import StudySpec, SystemSpec
>>> async def main():
...     service = EvaluationService()
...     client = ServiceClient(service, tenant="me")
...     spec = StudySpec(system=SystemSpec(n=4, failure_rate=1e-4),
...                      metrics=("availability",))
...     outcome = await client.submit(spec)
...     return outcome.cells[0].evaluation.metrics["availability"]
>>> round(asyncio.run(main()), 6)                       # doctest: +SKIP
0.999...
"""

from repro.service.batching import (AdmissionBatcher, BatchCell,
                                    ExecutedCell, execute_cells)
from repro.service.cache import CachedResult, ResultLRU
from repro.service.dedup import SingleFlight
from repro.service.server import EvaluationServer, ServiceHTTPClient
from repro.service.session import (EvaluationService, ServiceClient,
                                   StudyOutcome, SubmitOutcome)

__all__ = [
    "AdmissionBatcher",
    "BatchCell",
    "CachedResult",
    "EvaluationServer",
    "EvaluationService",
    "ExecutedCell",
    "ResultLRU",
    "ServiceClient",
    "ServiceHTTPClient",
    "SingleFlight",
    "StudyOutcome",
    "SubmitOutcome",
    "execute_cells",
]
