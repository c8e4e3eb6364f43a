"""Micro-benchmarks for the TransientOperator backends (dense vs sparse).

Records the dense/sparse crossover on the full recovery-line chain and pins
the capability the sparse backend opens: heterogeneous full-chain moments at
n = 14 (16 384 transient states), where the dense path would need a 2 GB
``(2^14+1)²`` array and a matrix exponential that never finishes.

The measured pipeline is the analytic hot path of the new scenarios: CSR (or
dense) generator assembly → ``E[X]``/``Var[X]`` solves → a 101-point density
grid.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core.parameters import SystemParameters
from repro.markov.generator import build_phase_type
from repro.runner import run_scenario

#: Heterogeneous family used throughout (gradient + locality decay) — the
#: workload the lumped chain cannot represent.
def _hetero(n: int) -> SystemParameters:
    return SystemParameters.heterogeneous(n, mu_gradient=2.0, lam_base=0.5,
                                          locality=1.0)


def _analytic_pipeline(params: SystemParameters, backend: str) -> float:
    ph = build_phase_type(params, backend=backend)
    assert ph.backend == backend      # forced backends are really honoured
    mean = ph.mean()
    ph.variance()
    ph.pdf(np.linspace(0.0, 4.0, 101))
    return mean


@pytest.mark.benchmark(group="analytic-operators")
def test_bench_dense_pipeline_n10(benchmark):
    """Dense expm/LU pipeline at n=10 (1024 transient states)."""
    params = _hetero(10)
    mean = benchmark.pedantic(_analytic_pipeline, args=(params, "dense"),
                              iterations=1, rounds=3)
    assert mean > 0.0


@pytest.mark.benchmark(group="analytic-operators")
def test_bench_sparse_pipeline_n10(benchmark):
    """Sparse CSR/Krylov pipeline at n=10 (the auto-selection crossover)."""
    params = _hetero(10)
    mean = benchmark.pedantic(_analytic_pipeline, args=(params, "sparse"),
                              iterations=1, rounds=3)
    assert mean > 0.0


@pytest.mark.benchmark(group="analytic-operators")
def test_bench_sparse_pipeline_n12(benchmark):
    """Sparse pipeline at n=12 (4096 states — dense takes seconds here)."""
    params = _hetero(12)
    mean = benchmark.pedantic(_analytic_pipeline, args=(params, "sparse"),
                              iterations=1, rounds=2)
    assert mean > 0.0


@pytest.mark.slow
def test_sparse_speedup_over_dense_at_n11():
    """Acceptance guard: the sparse pipeline beats dense ≥3x at n=11 and the
    two backends agree at solver precision.

    n=11 keeps the guard fast (dense ~3 s); the gap widens steeply from there
    (measured: 2.7x at n=10, 13x at n=11, 62x at n=12 — where dense needs
    ~22 s — and dense cannot run at all at n=14).
    """
    params = _hetero(11)

    start = time.perf_counter()
    sparse_mean = _analytic_pipeline(params, "sparse")
    sparse_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    dense_mean = _analytic_pipeline(params, "dense")
    dense_elapsed = time.perf_counter() - start

    assert sparse_mean == pytest.approx(dense_mean, rel=1e-9)
    speedup = dense_elapsed / sparse_elapsed
    print(f"\nn=11 analytic pipeline: dense {dense_elapsed:.2f}s, "
          f"sparse {sparse_elapsed:.2f}s, speedup {speedup:.1f}x")
    # Measured ~13x; the floor is conservative against machine noise.
    assert speedup >= 3.0


@pytest.mark.slow
def test_sparse_full_chain_moments_n14_heterogeneous():
    """ISSUE acceptance: full-chain PhaseType moments at n=14 heterogeneous
    complete — the dense path cannot even allocate this system."""
    params = _hetero(14)
    start = time.perf_counter()
    ph = build_phase_type(params, backend="auto")
    assert ph.backend == "sparse"
    assert ph.order == 2 ** 14
    mean = ph.mean()
    second = ph.moment(2)
    elapsed = time.perf_counter() - start
    assert np.isfinite(mean) and mean > 0.0
    assert second > mean ** 2          # Var[X] > 0
    # Wald cross-check ties the sparse solves to an independent identity:
    # E[L_i] = mu_i * E[X] under "all" counting.
    from repro.markov.split_chain import expected_rp_counts
    counts = expected_rp_counts(params, counting="all")
    assert np.allclose(counts, params.mu * mean, rtol=1e-6)
    print(f"\nn=14 heterogeneous full chain: E[X]={mean:.4f}, "
          f"E[X^2]={second:.1f}, total {elapsed:.2f}s")
    assert elapsed < 60.0


@pytest.mark.benchmark(group="analytic-operators")
def test_bench_heterogeneous_sweep_scenario(benchmark):
    """The registered heterogeneous_sweep scenario end to end (n=9, serial)."""
    result = benchmark.pedantic(
        run_scenario, args=("heterogeneous_sweep",),
        kwargs={"n": 9, "mu_gradients": (1.0, 2.0)},
        iterations=1, rounds=1)
    emit(result)
    assert len(result.rows) == 2
