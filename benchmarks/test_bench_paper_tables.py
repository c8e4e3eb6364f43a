"""Benchmarks regenerating the paper's quantitative artefacts.

E3 (Figure 5), E4 (Figure 6), E5 (Table 1), E6 (Section 3 CL), E7 (Section 4 PRP
costs), each run as its registered scenario.  Each benchmark times the
regeneration and prints the regenerated rows.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.table1 import PAPER_TABLE1
from repro.runner import run_scenario


@pytest.mark.benchmark(group="paper-tables")
def test_bench_table1(benchmark):
    """E5 — Table 1: E[X] and E[L_i] for the five parameter cases."""
    result = benchmark(run_scenario, "table1", seed=2024, simulate=False)
    emit(result)
    # Reproduction guard: the E[L] columns must match the paper.
    for case in range(1, 6):
        assert result.rows[case - 1].get("sum E[L]") == pytest.approx(
            PAPER_TABLE1[case][4], abs=5e-3)


@pytest.mark.benchmark(group="paper-tables")
def test_bench_table1_montecarlo(benchmark):
    """E5 (paper methodology) — Table 1 via Monte-Carlo simulation of the model."""
    result = benchmark.pedantic(run_scenario, args=("table1",),
                                kwargs=dict(seed=7, reps=4000, simulate=True),
                                iterations=1, rounds=1)
    emit(result)
    for row in result.rows:
        assert row.get("sim E[X]") == pytest.approx(row.get("E[X]"), rel=0.12)


@pytest.mark.benchmark(group="paper-figures")
def test_bench_figure5(benchmark):
    """E3 — Figure 5: E[X] versus the number of processes at constant rho."""
    result = benchmark(run_scenario, "figure5",
                       n_values=(2, 3, 4, 5, 6, 7, 8),
                       rho_values=(0.5, 1.0, 2.0, 4.0))
    emit(result)
    high = result.column("E[X] rho=4")
    assert high[-1] > high[0] * 10.0          # drastic growth with n


@pytest.mark.benchmark(group="paper-figures")
def test_bench_figure6(benchmark):
    """E4 — Figure 6: the density f_X(t) of the inter-recovery-line interval."""
    result = benchmark(run_scenario, "figure6")
    emit(result)
    for row in result.rows:
        assert row.get("f(0)") > row.get("f(2)")


@pytest.mark.benchmark(group="paper-sections")
def test_bench_sync_loss(benchmark):
    """E6 — Section 3: mean computation-power loss CL of synchronized RBs."""
    result = benchmark(run_scenario, "sync_loss")
    emit(result)
    assert result.column("CL h=1") == sorted(result.column("CL h=1"))


@pytest.mark.benchmark(group="paper-sections")
def test_bench_prp_costs(benchmark):
    """E7 — Section 4: PRP overhead, storage and rollback-distance bound."""
    result = benchmark(run_scenario, "prp_costs")
    emit(result)
    ratios = result.column("bound / E[X]")
    assert ratios[-1] < ratios[0]
