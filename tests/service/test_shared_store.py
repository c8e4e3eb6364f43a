"""The service and the CLI share one store: a cell either one stored is a
hit for the other, and the warehouse loads each cell once."""

import asyncio
import os

import repro.api.facade as facade
from repro.api.facade import evaluate_record
from repro.report.store import ResultStore
from repro.service import EvaluationService
from repro.warehouse import load_store

#: The CI service smoke's sweep: six seeded ``mc`` cells.
SWEEP = {"system": {"kind": "symmetric", "n": 4, "mu": 1.0, "lam": 0.5},
         "metrics": ["mean"], "seed": 7, "reps": 500,
         "sweep": {"n": [3, 4, 5, 6, 7, 8]}}


def test_cli_serves_the_cells_the_service_stored(tmp_path, monkeypatch):
    root = str(tmp_path / "store")

    async def serve():
        service = EvaluationService(store=root)
        try:
            outcome = await service.submit(SWEEP, "mc")
        finally:
            await service.drain()
            service.backend.close()
        return outcome

    outcome = asyncio.run(serve())
    assert [cell.source for cell in outcome.cells] == ["computed"] * 6

    computed = []
    real = facade.execute_and_store

    def spy(backend, cells, identities, store):
        computed.extend(cells)
        return real(backend, cells, identities, store)

    monkeypatch.setattr(facade, "execute_and_store", spy)
    result = evaluate_record(SWEEP, method="mc", store=ResultStore(root))
    assert result.cache_hits == 6
    assert computed == []
    assert [cell.key for cell in result.cells] == \
        [cell.key for cell in outcome.cells]

    objects = [name for _, _, names in os.walk(root) for name in names]
    assert len(objects) == 6

    summary = load_store(root, str(tmp_path / "wh.sqlite"))
    assert summary.cells_seen == summary.cells_inserted == 6
