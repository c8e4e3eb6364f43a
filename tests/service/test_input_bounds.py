"""Bounded service input: a sweep too wide to serve is refused up front."""

import asyncio

import pytest

from repro.api import StudySpec
from repro.service import EvaluationServer, EvaluationService, \
    ServiceHTTPClient
from repro.service.session import MAX_SUBMIT_CELLS

#: Four ``n`` values times enough ``lam`` values to pass the limit, so the
#: count the error names is a product of the axes, not one axis length.
LAMS = [round(0.1 + 0.001 * i, 6) for i in range(MAX_SUBMIT_CELLS // 4 + 1)]
TOO_WIDE = {"system": {"kind": "symmetric", "n": 3, "mu": 1.0, "lam": 0.5},
            "metrics": ["mean"],
            "sweep": {"n": [3, 4, 5, 6], "lam": LAMS}}
COUNT = 4 * len(LAMS)


def test_submit_rejects_before_any_cell_is_submitted():
    async def main():
        service = EvaluationService()
        submitted = []

        async def spy(cells, method, force):
            submitted.extend(cells)

        service._submit_cells = spy
        with pytest.raises(ValueError, match=f"{COUNT} cells"):
            await service.submit(StudySpec.from_dict(TOO_WIDE))
        return service, submitted

    service, submitted = asyncio.run(main())
    assert submitted == []
    assert service.submissions == 0
    assert service.cells_submitted == 0


def test_http_answers_400_with_the_cell_count():
    async def main():
        service = EvaluationService()
        server = EvaluationServer(service, port=0)
        await server.start()
        client = ServiceHTTPClient(port=server.port)
        try:
            return await client.evaluate(TOO_WIDE), service
        finally:
            await client.close()
            await server.stop()

    (status, payload), service = asyncio.run(main())
    assert status == 400
    assert payload["ok"] is False
    assert str(COUNT) in payload["error"]
    assert service.cells_submitted == 0
