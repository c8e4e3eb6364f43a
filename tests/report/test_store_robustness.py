"""ResultStore robustness: concurrent puts from many processes."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.common import ExperimentResult
from repro.report.store import ResultStore, store_identity


def _result(name="robustness_fixture", value=1.25):
    result = ExperimentResult(
        name=name,
        paper_reference="unit fixture",
        columns=["a"],
        notes="fixture",
    )
    result.add_row("row", a=value)
    return result


def _hammer_worker(args):
    """Process-pool entry: put one record into the shared store."""
    root, worker_id = args
    store = ResultStore(root)
    record = store.put(store_identity("scenario", {"worker": worker_id},
                                      worker_id, 100),
                       backend="serial", elapsed_seconds=0.1,
                       result=_result(value=float(worker_id)))
    return record.key


class TestConcurrentPuts:
    @pytest.mark.slow
    def test_process_pool_puts_all_land_whole(self, tmp_path):
        root = str(tmp_path)
        workers = 16
        with ProcessPoolExecutor(max_workers=8) as pool:
            keys = list(pool.map(_hammer_worker, [(root, i)
                                                  for i in range(workers)]))
        assert len(set(keys)) == workers
        store = ResultStore(root)
        # Every object is whole and loads; no writer left a temp file.
        for worker_id, key in enumerate(keys):
            record = store.get(key)
            assert record is not None
            assert record.result.to_dict() == \
                _result(value=float(worker_id)).to_dict()
        assert len(store) == workers
        leftovers = [name for _, _, files in os.walk(root)
                     for name in files if name.endswith(".tmp")]
        assert leftovers == []
