"""A failed store write fails only the cell it belongs to."""

import asyncio

from repro.api import StudySpec, SystemSpec
from repro.runner.backends import SerialBackend
from repro.service import EvaluationService, ServiceClient


class OneBadKeyStore:
    """A store whose ``put`` raises for one key and records the others."""

    def __init__(self, bad_key):
        self.bad_key = bad_key
        self.written = []

    def get(self, key, scenario=None):
        return None

    def put(self, identity, **fields):
        if identity.key == self.bad_key:
            raise OSError("disk full")
        self.written.append(identity.key)


def _cell(n):
    return StudySpec(system=SystemSpec.symmetric(n, 1.0, 0.5),
                     metrics=("mean",))


def test_failed_put_fails_only_its_own_cell():
    specs = [_cell(n) for n in (3, 4, 5)]
    bad = specs[1].canonical_key("analytic")
    store = OneBadKeyStore(bad)

    async def main():
        service = EvaluationService(backend=SerialBackend(), store=store)
        tenants = [ServiceClient(service, tenant=name)
                   for name in ("a", "b", "c")]
        # force skips the off-loop store probes, so all three cells are
        # admitted in one loop turn and share one batch.
        outcomes = await asyncio.gather(
            *(tenant.submit(spec, "analytic", force=True)
              for tenant, spec in zip(tenants, specs)),
            return_exceptions=True)
        return service, outcomes

    service, outcomes = asyncio.run(main())
    assert service.batcher.batches == 1            # all three in one batch
    assert isinstance(outcomes[1], OSError)
    for index in (0, 2):
        [cell] = outcomes[index].cells
        assert cell.source == "computed"
        assert cell.key == specs[index].canonical_key("analytic")
    assert service.errors == 1
    assert service.cells_executed == 2
    assert sorted(store.written) == sorted(
        specs[i].canonical_key("analytic") for i in (0, 2))
