"""Admission batching: group commit, one map per worker group."""

import asyncio

import pytest

from repro.api import StudySpec, SystemSpec
from repro.runner.backends import SerialBackend
from repro.service import EvaluationService
from repro.service.batching import (AdmissionBatcher, BatchCell,
                                    ExecutedCell, execute_cells)


class CountingBackend(SerialBackend):
    """Serial backend that counts ``map`` dispatches."""

    def __init__(self):
        self.dispatches = 0

    def map(self, func, tasks):
        self.dispatches += 1
        return super().map(func, tasks)


def _analytic(n):
    return StudySpec(system=SystemSpec.symmetric(n, 1.0, 0.5),
                     metrics=("mean",))


def _mc(n, seed=7):
    return StudySpec(system=SystemSpec.symmetric(n, 1.0, 0.5),
                     metrics=("mean",), seed=seed, reps=64)


class TestAdmissionBatcher:
    def test_lone_admission_flushes_next_turn_without_timer(self):
        flushed = []

        async def main():
            async def flush(batch):
                flushed.append(batch)
            batcher = AdmissionBatcher(flush, max_batch=100)
            batcher.admit("lone")
            assert batcher.stats()["batches"] == 0
            await asyncio.sleep(0)            # next loop turn: batch leaves
            assert batcher.stats()["batches"] == 1
            await asyncio.sleep(0)            # its flush task runs
            assert flushed == [["lone"]]
        asyncio.run(main())

    def test_same_turn_burst_is_one_flush(self):
        flushed = []

        async def main():
            async def flush(batch):
                flushed.append(batch)
            batcher = AdmissionBatcher(flush, max_batch=100)
            for i in range(5):
                batcher.admit(i)
            assert len(batcher) == 5          # nothing flushed yet
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert flushed == [[0, 1, 2, 3, 4]]
            stats = batcher.stats()
            assert stats["batches"] == 1
            assert stats["mean_occupancy"] == 5.0
        asyncio.run(main())

    def test_admissions_during_a_flush_form_one_follow_up(self):
        events = []

        async def main():
            release = asyncio.Event()

            async def flush(batch):
                events.append(("start", batch))
                if batch == [0]:
                    await release.wait()
                events.append(("end", batch))
            batcher = AdmissionBatcher(flush, max_batch=100)
            batcher.admit(0)
            await asyncio.sleep(0)
            await asyncio.sleep(0)            # the first flush is running
            for i in (1, 2, 3):               # admitted on separate turns
                batcher.admit(i)
                await asyncio.sleep(0)
            await asyncio.sleep(0.05)
            assert events == [("start", [0])]
            assert len(batcher) == 3
            release.set()
            for _ in range(5):
                await asyncio.sleep(0)
            assert batcher.stats()["batches"] == 2
        asyncio.run(main())
        assert events == [("start", [0]), ("end", [0]),
                          ("start", [1, 2, 3]), ("end", [1, 2, 3])]

    def test_max_batch_flushes_immediately(self):
        flushed = []

        async def main():
            async def flush(batch):
                flushed.append(list(batch))
            batcher = AdmissionBatcher(flush, max_batch=3)
            for i in range(7):
                batcher.admit(i)
            assert batcher.stats()["batches"] == 2    # without a loop turn
            for _ in range(3):                # flushes run, then follow up
                await asyncio.sleep(0)
            assert len(batcher) == 0
        asyncio.run(main())
        assert [len(batch) for batch in flushed] == [3, 3, 1]

    def test_parameter_validation(self):
        async def noop(batch):
            pass
        with pytest.raises(ValueError):
            AdmissionBatcher(noop, max_batch=0)


class TestExecuteCells:
    def test_deterministic_burst_is_one_dispatch(self):
        backend = CountingBackend()
        cells = [BatchCell(spec=_analytic(n), method="analytic")
                 for n in range(2, 8)]
        outcomes, dispatches = execute_cells(backend, cells)
        assert dispatches == 1
        assert backend.dispatches == 1
        assert all(isinstance(outcome, ExecutedCell) for outcome in outcomes)

    def test_mixed_engines_one_dispatch_per_worker_group(self):
        backend = CountingBackend()
        cells = ([BatchCell(spec=_analytic(n), method="analytic")
                  for n in (3, 4)]
                 + [BatchCell(spec=_mc(n), method="mc") for n in (3, 4)]
                 + [BatchCell(spec=_mc(5), method="des")])
        outcomes, dispatches = execute_cells(backend, cells)
        # analytic -> 1 map; mc and des share one worker -> 1 map.
        assert dispatches == 2
        assert backend.dispatches == 2
        assert all(isinstance(outcome, ExecutedCell) for outcome in outcomes)

    def test_bad_cell_poisons_only_itself(self):
        backend = CountingBackend()
        good = BatchCell(spec=_mc(4), method="mc")
        bad = BatchCell(spec=_mc(3), method="no_such_engine")
        outcomes, _dispatches = execute_cells(backend, [good, bad])
        assert isinstance(outcomes[0], ExecutedCell)
        assert isinstance(outcomes[1], Exception)


class TestServiceBatching:
    def test_distinct_cell_burst_coalesces_into_one_map(self):
        backend = CountingBackend()

        async def main():
            service = EvaluationService(backend=backend)
            specs = [_analytic(n) for n in range(2, 12)]
            return await asyncio.gather(
                *(service.submit_cell(spec) for spec in specs)), service

        outcomes, service = asyncio.run(main())
        assert backend.dispatches == 1
        assert service.stats()["batching"]["mean_occupancy"] == 10.0
        assert len({outcome.key for outcome in outcomes}) == 10

    def test_sweep_submission_coalesces(self):
        backend = CountingBackend()

        async def main():
            service = EvaluationService(backend=backend)
            sweep = StudySpec(system=SystemSpec.symmetric(5, 1.0, 0.5),
                              metrics=("mean",),
                              sweep={"n": [3, 4, 5, 6]})
            return await service.submit(sweep)

        outcome = asyncio.run(main())
        assert len(outcome.cells) == 4
        assert backend.dispatches == 1

    def test_engine_error_rejects_only_its_cells(self):
        async def main():
            service = EvaluationService()
            good = _analytic(4)
            # Strategy metrics on a symmetric system -> engine-side error.
            results = await asyncio.gather(
                service.submit_cell(good),
                service.submit_cell(_mc(3), "no_such_engine"),
                return_exceptions=True)
            return results

        ok, err = asyncio.run(main())
        assert not isinstance(ok, Exception)
        assert isinstance(err, Exception)
