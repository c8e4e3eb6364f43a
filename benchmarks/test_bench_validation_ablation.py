"""Benchmarks for the validation (E10) and ablation experiments."""

import pytest

from benchmarks.conftest import emit
from repro.runner import run_scenario


@pytest.mark.benchmark(group="validation")
def test_bench_validation_three_way(benchmark):
    """E10 — analytic vs Monte-Carlo vs history-level agreement on E[X]."""
    result = benchmark.pedantic(run_scenario, args=("validation",),
                                kwargs=dict(seed=17, reps=3000, cases=(1, 2),
                                            history_duration=250.0),
                                iterations=1, rounds=1)
    emit(result)
    for row in result.rows:
        assert row.get("MC rel err") < 0.12


@pytest.mark.benchmark(group="validation")
def test_bench_sync_loss_runtime_validation(benchmark):
    """E6 cross-check — measured waiting loss of the synchronized runtime vs CL."""
    result = benchmark.pedantic(run_scenario, args=("sync_loss_validation",),
                                kwargs=dict(seed=13, n=3, work=300.0),
                                iterations=1, rounds=1)
    emit(result)
    assert result.rows[0].get("relative error") < 0.3


@pytest.mark.benchmark(group="ablation")
def test_bench_ablation_detectors(benchmark):
    """Ablation — exact vs latest-RP (paper model) recovery-line detection."""
    result = benchmark.pedantic(run_scenario, args=("detector_ablation",),
                                kwargs=dict(seed=19, cases=(1, 2),
                                            duration=200.0),
                                iterations=1, rounds=1)
    emit(result)
    for row in result.rows:
        assert row.get("conservatism") >= 1.0


@pytest.mark.benchmark(group="ablation")
def test_bench_ablation_solvers(benchmark):
    """Ablation — matrix-exponential vs Chapman-Kolmogorov ODE evaluation."""
    result = benchmark(run_scenario, "solver_ablation", case=1)
    emit(result)
    assert max(result.column("abs diff")) < 1e-6
