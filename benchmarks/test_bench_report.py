"""Micro-benchmarks for the result store and the report pipeline.

What matters for the persistence layer is not raw throughput — stored
objects are a few KB of JSON — but that a **cache hit costs milliseconds**
while the scenario it replaces costs anywhere from seconds to (at large n)
minutes.  The cache-speedup guard pins that contract; the store benchmarks
track put/get overhead so the write-through hook stays negligible next to
any real scenario.
"""

import time

import pytest

from repro.experiments.common import ExperimentResult
from repro.report import ResultStore, generate_report
from repro.report.store import store_identity
from repro.runner import ExperimentRunner


def _payload(rows: int = 50) -> ExperimentResult:
    result = ExperimentResult(name="bench", paper_reference="(bench)",
                              columns=["a", "b", "c"])
    for index in range(rows):
        result.add_row(f"row {index}", a=index * 0.5, b=index ** 2,
                       c=1.0 / (index + 1))
    return result


@pytest.mark.benchmark(group="report-store")
def test_bench_store_put(benchmark, tmp_path):
    """Write-through cost per stored run (50-row result)."""
    store = ResultStore(str(tmp_path))
    payload = _payload()
    counter = iter(range(10 ** 9))

    def put():
        store.put(store_identity("bench", {"cell": next(counter)}, 1, None),
                  backend="serial", elapsed_seconds=0.0, result=payload)

    benchmark.pedantic(put, iterations=20, rounds=5)


@pytest.mark.benchmark(group="report-store")
def test_bench_store_get(benchmark, tmp_path):
    """Cache-hit lookup cost (the price of resuming instead of recomputing)."""
    store = ResultStore(str(tmp_path))
    record = store.put(store_identity("bench", {}, 1, None),
                       backend="serial", elapsed_seconds=0.0,
                       result=_payload())
    loaded = benchmark.pedantic(store.get, args=(record.key,),
                                iterations=20, rounds=5)
    assert loaded is not None


def test_cache_hit_beats_recompute(tmp_path):
    """Acceptance guard: serving figure5_full_chain from the store is ≥5x
    faster than computing it (in practice it is orders of magnitude)."""
    store = ResultStore(str(tmp_path))
    runner = ExperimentRunner(seed=3, store=store)
    start = time.perf_counter()
    runner.run_record("figure5_full_chain", n_values=(6, 8), rho_values=(1.0,))
    computed = time.perf_counter() - start
    start = time.perf_counter()
    record = runner.run_record("figure5_full_chain", n_values=(6, 8),
                               rho_values=(1.0,))
    cached = time.perf_counter() - start
    assert record.cached
    assert cached * 5.0 < computed, (cached, computed)


@pytest.mark.benchmark(group="report-pipeline")
def test_bench_report_rerun_from_store(benchmark, tmp_path):
    """Full `report` pass over warm cells: pure render + markdown cost."""
    out = str(tmp_path / "reports")
    scenarios = ["table1", "figure6"]
    generate_report(scenarios, out_dir=out)          # warm the store
    summary = benchmark.pedantic(generate_report, args=(scenarios,),
                                 kwargs={"out_dir": out},
                                 iterations=1, rounds=5)
    assert summary.cache_hits == len(scenarios)
