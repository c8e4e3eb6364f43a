"""One submission, one path: a cold sweep probes the store once, leaves as
one batch, and keys and writes each computed cell once."""

import asyncio
import json
import sys

import repro.report.store as store_module
from repro.api import StudySpec, SystemSpec, evaluate_record
from repro.report.store import ResultStore
from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.service import EvaluationService

#: Eight cold analytic cells.
COLD = {"system": {"kind": "symmetric", "n": 4, "mu": 1.0, "lam": 0.5},
        "metrics": ["mean"],
        "sweep": {"lam": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]}}


def _cells(spec):
    return list(StudySpec.from_dict(spec).cells())


def test_cold_sweep_is_one_probe_and_one_dispatch(tmp_path, monkeypatch):
    hops = []
    real = asyncio.to_thread

    async def counting(func, *args, **kwargs):
        hops.append(getattr(func, "__name__", repr(func)))
        return await real(func, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counting)

    async def main():
        service = EvaluationService(backend=ProcessPoolBackend(workers=2),
                                    store=str(tmp_path / "store"))
        try:
            before = service.stats()["dispatches"]
            outcome = await service.submit(COLD, "analytic")
            return outcome, service.stats()["dispatches"] - before, service
        finally:
            service.backend.close()

    outcome, dispatched, service = asyncio.run(main())
    assert [cell.source for cell in outcome.cells] == ["computed"] * 8
    assert hops == ["_probe_store", "execute_and_store"]
    assert dispatched == 1
    assert service.batcher.batches == 1
    for cell in _cells(COLD):
        path = service.store.object_path(cell.canonical_key("analytic"))
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text)["key"] == cell.canonical_key("analytic")


def test_store_key_runs_once_per_computed_cell(tmp_path, monkeypatch):
    calls = []
    real = store_module.store_key

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # Wherever the package bound it by name, so no call goes uncounted.
    for module in list(sys.modules.values()):
        if getattr(module, "store_key", None) is real \
                and module.__name__.startswith("repro"):
            monkeypatch.setattr(module, "store_key", counting)

    async def main():
        service = EvaluationService(backend=SerialBackend(),
                                    store=str(tmp_path / "store"))
        return await service.submit(COLD, "analytic"), service

    outcome, service = asyncio.run(main())
    assert [cell.source for cell in outcome.cells] == ["computed"] * 8
    assert len(calls) == 8
    assert len(service.store) == 8


def test_mixed_sources_and_counters(tmp_path):
    """n=3 sits in the LRU, n=4 in the store, n=5 and n=6 are cold.  The
    reps axis duplicates every cell (analytic results ignore the budget, so
    both reps values share one key): the second copy of a cold cell joins
    the first one's flight."""
    root = str(tmp_path / "store")
    base = {"system": {"kind": "symmetric", "n": 4, "mu": 1.0, "lam": 0.5},
            "metrics": ["mean"]}
    evaluate_record(base, method="analytic", store=ResultStore(root))
    sweep = {**base, "sweep": {"n": [3, 4, 5, 6], "reps": [100, 200]}}

    async def main():
        service = EvaluationService(backend=SerialBackend(), store=root)
        await service.submit({**base, "system": {**base["system"], "n": 3}},
                             "analytic")
        before = service.stats()
        outcome = await service.submit(sweep, "analytic")
        return service, before, outcome

    service, before, outcome = asyncio.run(main())
    expected = {3: ["lru", "lru"], 4: ["store", "store"],
                5: ["computed", "inflight"], 6: ["computed", "inflight"]}
    seen = {}
    for cell in outcome.cells:
        seen.setdefault(cell.spec.system.n, []).append(cell.source)
    assert seen == expected
    for n in (5, 6):
        first, second = [cell for cell in outcome.cells
                         if cell.spec.system.n == n]
        assert first.key == second.key
        assert first.evaluation == second.evaluation
    after = service.stats()
    assert after["cells_submitted"] - before["cells_submitted"] == 8
    assert after["cells_executed"] - before["cells_executed"] == 2
    assert after["dispatches"] - before["dispatches"] == 1
    assert after["store_hits"] - before["store_hits"] == 2
    assert after["lru"]["hits"] - before["lru"]["hits"] == 2
    assert after["dedup"]["flights"] - before["dedup"]["flights"] == 2
    assert after["dedup"]["joined"] - before["dedup"]["joined"] == 2
    assert after["batching"]["batches"] - before["batching"]["batches"] == 1
    assert after["errors"] == 0
    assert len(service.store) == 4
