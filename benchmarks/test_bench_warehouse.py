"""Warehouse ETL throughput on the perf trajectory.

Builds a synthetic result store of :data:`N_CELLS` cells (a scheme x n x
lam grid with realistic metric rows), loads it into a fresh SQLite
warehouse :data:`BENCH_REPEATS` times and takes the best wall time.  The
correctness half — every load sees and inserts all cells, a re-load
inserts zero — runs on every invocation (PR smoke included); the perf half
follows the standard trajectory toggles:

``REPRO_BENCH_RECORD=1``
    append cells/s to ``BENCH_warehouse.json`` via :mod:`repro.bench`.
``REPRO_BENCH_GUARD=1``
    fail on a >25% throughput drop vs. the latest same-machine entry.
"""

import os
import sqlite3
import time

from repro import bench
from repro.experiments.common import ExperimentResult
from repro.report.store import ResultStore, store_identity
from repro.warehouse import load_store

from test_bench_trajectory import GUARD_TOLERANCE, check_guard  # noqa: F401

#: Cells in the synthetic store; small enough for PR smoke, large enough
#: that the per-cell INSERT path dominates the measured wall.
N_CELLS = 120

BENCH_REPEATS = 3


def _build_store(root):
    store = ResultStore(root)
    schemes = ("synchronized", "asynchronous", "pseudo")
    index = 0
    for scheme in schemes:
        for n in (3, 5, 7, 9):
            for lam_tenths in range(1, 11):
                if index >= N_CELLS:
                    return store
                index += 1
                lam = lam_tenths / 10.0
                result = ExperimentResult(
                    name="api_evaluation", paper_reference="",
                    columns=["value"],
                    notes='{"method": "strategy", "backend": "serial"}')
                result.add_row("makespan", value=15.0 + index / 7.0)
                result.add_row("slowdown", value=1.0 + index / 97.0)
                result.add_row("stderr_makespan", value=0.5 / (index + 1))
                result.add_row("rollbacks", value=float(index % 5))
                store.put(store_identity(
                    "evaluate",
                    {"method": "strategy",
                     "spec": {"system": {"kind": "strategy",
                                         "scheme": scheme, "n": n,
                                         "mu": 1.0, "lam": lam,
                                         "work": 15.0,
                                         "checkpoint_cost": 0.02},
                              "metrics": ["makespan", "slowdown",
                                          "rollbacks"],
                              "counting": "per_process"}},
                    11, 3),
                    backend="serial", elapsed_seconds=0.01, result=result)
    return store


class TestWarehouseLoadTrajectory:
    def test_load_throughput_and_idempotence(self, tmp_path):
        root = str(tmp_path / "store")
        _build_store(root)
        wall = float("inf")
        for repeat in range(BENCH_REPEATS):
            db = str(tmp_path / f"wh{repeat}.sqlite")
            start = time.perf_counter()
            summary = load_store(root, db)
            wall = min(wall, time.perf_counter() - start)
            assert summary.cells_seen == summary.cells_inserted == N_CELLS
            again = load_store(root, db)
            assert again.cells_inserted == 0
            conn = sqlite3.connect(db)
            cells, axes, metrics = (
                conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
                for t in ("cells", "axes", "metrics"))
            conn.close()
            assert cells == N_CELLS
            assert axes == N_CELLS * 10      # method/kind + 6 args + 3 spec
            assert metrics == N_CELLS * 4
        print(f"\n[warehouse] {N_CELLS} cells loaded in {wall*1e3:.1f} ms "
              f"({N_CELLS / wall:.0f} cells/s)")
        check_guard("warehouse", f"etl_load_{N_CELLS}cells", wall, N_CELLS)
