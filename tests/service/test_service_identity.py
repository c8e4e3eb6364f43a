"""Service-vs-direct bit-identity: same metrics (to the hex digit), same keys.

The service is a routing layer, not an engine: whatever mixture of dedup,
LRU, batching and store read-through serves a cell, the payload must be
byte-for-byte what a direct ``repro.evaluate`` call computes, stored under
the identical canonical key.  Equality is asserted on ``float.hex()``
snapshots — a formatting-stable encoding where any bit difference shows.
"""

import asyncio

import pytest

from repro.api import StudySpec, SystemSpec, evaluate
from repro.api.facade import evaluate_record
from repro.report import ResultStore
from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.service import EvaluationService
from repro.service.batching import BatchCell, execute_cells


def hexify(value):
    """Recursively encode floats as ``float.hex()`` for bit-level equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexify(v) for v in value]
    return value


def _submit(service, spec, method="auto"):
    async def main():
        return await service.submit_cell(spec, method)
    return asyncio.run(main())


ANALYTIC = StudySpec(system=SystemSpec.symmetric(5, 1.0, 0.5),
                     metrics=("mean", "variance"))
MC = StudySpec(system=SystemSpec.symmetric(5, 1.0, 0.5),
               metrics=("mean", "std"), seed=20240, reps=128)
STRATEGY = StudySpec(
    system=SystemSpec.strategy("synchronized", 3, mu=1.0, lam=1.0,
                               work=12.0, error_rate=0.04,
                               sync_interval=2.0),
    metrics=("makespan", "rollbacks", "lost_work"), seed=11, reps=2)


class TestBitIdentity:
    @pytest.mark.parametrize("spec,method", [
        (ANALYTIC, "analytic"),
        (MC, "mc"),
        (MC, "des"),
    ], ids=["analytic", "mc", "des"])
    def test_metrics_hex_identical_to_direct(self, spec, method):
        direct = evaluate(spec, method)
        outcome = _submit(EvaluationService(), spec, method)
        assert hexify(outcome.evaluation.metrics) == hexify(direct.metrics)
        assert hexify(outcome.evaluation.to_dict()) == \
            hexify(direct.to_dict())

    def test_strategy_hex_identical_to_direct(self):
        direct = evaluate(STRATEGY, "strategy")
        outcome = _submit(EvaluationService(), STRATEGY, "strategy")
        assert hexify(outcome.evaluation.to_dict()) == \
            hexify(direct.to_dict())

    def test_service_key_matches_canonical_key(self):
        service = EvaluationService()
        for spec, method in ((ANALYTIC, "analytic"), (MC, "mc")):
            outcome = _submit(service, spec, method)
            assert outcome.key == spec.canonical_key(method)


class TestPersistentPoolIdentity:
    def test_process_batches_hex_identical_to_serial(self):
        """An analytic+mc batch, run twice on one pool (the second on warm
        workers), matches the serial backend to the last bit."""
        mc_sharded = StudySpec(system=SystemSpec.symmetric(5, 1.0, 0.5),
                               metrics=("mean", "std"), seed=20240,
                               reps=4500)         # three shards: a real map
        cells = [BatchCell(ANALYTIC, "analytic"),
                 BatchCell(StudySpec(system=SystemSpec.symmetric(6, 1.0, 0.5),
                                     metrics=("mean",)), "analytic"),
                 BatchCell(mc_sharded, "mc")]
        serial, _ = execute_cells(SerialBackend(), cells)
        expected = [hexify(out.result.to_dict()) for out in serial]
        with ProcessPoolBackend(workers=2) as backend:
            for _ in range(2):
                outcomes, dispatches = execute_cells(backend, cells)
                assert dispatches == 2
                assert [hexify(out.result.to_dict())
                        for out in outcomes] == expected


class TestStoreInterop:
    def test_service_store_record_identical_to_direct(self, tmp_path):
        """The service writes the same record a store-attached direct
        evaluation writes — same key, same payload bits."""
        direct_store = ResultStore(str(tmp_path / "direct"))
        result = evaluate_record(MC, "mc", store=direct_store)
        direct_cell = result.cells[0]

        service = EvaluationService(store=str(tmp_path / "service"))
        outcome = _submit(service, MC, "mc")
        assert outcome.key == direct_cell.key
        service_hit = service.store.get(outcome.key)
        direct_hit = direct_store.get(direct_cell.key)
        assert service_hit is not None and direct_hit is not None
        assert hexify(service_hit.result.to_dict()) == \
            hexify(direct_hit.result.to_dict())
        assert service_hit.seed == direct_hit.seed
        assert service_hit.reps == direct_hit.reps
        assert service_hit.params == direct_hit.params

    def test_direct_evaluation_reads_service_results(self, tmp_path):
        """A store populated by the service serves direct evaluations."""
        root = str(tmp_path)
        service = EvaluationService(store=root)
        outcome = _submit(service, MC, "mc")
        # Direct evaluation against the shard holding the cell hits the
        # cache (the runner consumes any key/get/put store).
        result = evaluate_record(MC, "mc", store=service.store)
        assert result.cells[0].cached is True
        assert hexify(result.cells[0].evaluation.metrics) == \
            hexify(outcome.evaluation.metrics)

    def test_service_reads_flat_store_results(self, tmp_path):
        """Pre-existing flat-store cells serve submissions (read-through)."""
        root = str(tmp_path)
        flat = ResultStore(root)
        evaluate_record(MC, "mc", store=flat)
        service = EvaluationService(store=root)
        outcome = _submit(service, MC, "mc")
        assert outcome.source == "store"
        direct = evaluate(MC, "mc")
        assert hexify(outcome.evaluation.metrics) == hexify(direct.metrics)

    def test_deterministic_cells_cache_across_layers(self, tmp_path):
        service = EvaluationService(store=str(tmp_path))
        first = _submit(service, ANALYTIC, "analytic")
        assert first.source == "computed"
        second = _submit(service, ANALYTIC, "analytic")
        assert second.source == "lru"
        # A fresh service over the same store reads it back from disk.
        fresh = EvaluationService(store=str(tmp_path))
        third = _submit(fresh, ANALYTIC, "analytic")
        assert third.source == "store"
        assert hexify(third.evaluation.metrics) == \
            hexify(first.evaluation.metrics)

    def test_rel_tol_is_restamped_per_requester(self, tmp_path):
        from dataclasses import replace
        service = EvaluationService(store=str(tmp_path))
        _submit(service, MC, "mc")
        loose = replace(MC, rel_tol=0.2)
        outcome = _submit(service, loose, "mc")
        assert outcome.source in ("lru", "store")   # same identity
        assert outcome.evaluation.rel_tol == 0.2
