"""Tests for the experiment harness (paper artefact regeneration)."""

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.experiments.common import ExperimentResult
from repro.experiments.figure6 import figure6_curves
from repro.experiments.table1 import PAPER_TABLE1
from repro.runner import run_scenario


class TestResultContainer:
    def test_add_row_requires_all_columns(self):
        result = ExperimentResult(name="x", paper_reference="y", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row("row", a=1.0)
        result.add_row("row", a=1.0, b=2.0)
        assert result.column("b") == [2.0]
        assert result.row("row").get("a") == 1.0
        with pytest.raises(KeyError):
            result.row("missing")

    def test_render_contains_reference_and_notes(self):
        result = ExperimentResult(name="x", paper_reference="Table 9",
                                  columns=["a"], notes="hello")
        result.add_row("r", a=1.0)
        text = result.render()
        assert "Table 9" in text and "hello" in text


class TestTable1:
    def test_matches_paper_EL_columns(self):
        result = run_scenario("table1", seed=2024, simulate=False)
        for case in range(1, 6):
            row = result.rows[case - 1]
            paper = PAPER_TABLE1[case]
            assert row.get("E[L1]") == pytest.approx(paper[1], abs=2e-3)
            if case != 5:
                # Case 5's printed E(L2)=3.111 is inconsistent with the printed
                # ΣE(L)=9.933=3·3.311 and with E(L_i)=μ_i·E[X]; we reproduce 3.311
                # and document the cell as a typo.
                assert row.get("E[L2]") == pytest.approx(paper[2], abs=2e-3)
            else:
                assert row.get("E[L2]") == pytest.approx(3.311, abs=2e-3)
            assert row.get("E[L3]") == pytest.approx(paper[3], abs=2e-3)
            assert row.get("sum E[L]") == pytest.approx(paper[4], abs=5e-3)

    def test_EX_within_paper_simulation_tolerance(self):
        result = run_scenario("table1", seed=2024, simulate=False)
        for case in range(1, 6):
            row = result.rows[case - 1]
            assert row.get("E[X]") == pytest.approx(PAPER_TABLE1[case][0], rel=0.07)

    def test_minimum_at_balanced_mu(self):
        result = run_scenario("table1", seed=2024, simulate=False)
        # Cases 1 and 3 (balanced mu) have smaller E[X] and sum E[L] than 2/4/5.
        balanced = [result.rows[0], result.rows[2]]
        skewed = [result.rows[1], result.rows[3], result.rows[4]]
        assert max(r.get("E[X]") for r in balanced) < \
            min(r.get("E[X]") for r in skewed)
        assert max(r.get("sum E[L]") for r in balanced) < \
            min(r.get("sum E[L]") for r in skewed)

    def test_simulated_columns_close_to_analytic(self):
        result = run_scenario("table1", seed=5, reps=3000, simulate=True)
        for row in result.rows:
            assert row.get("sim E[X]") == pytest.approx(row.get("E[X]"), rel=0.1)


class TestFigure5:
    def test_monotone_in_rho_and_steep_in_n(self):
        result = run_scenario("figure5", n_values=(2, 3, 4, 5),
                              rho_values=(0.5, 1.0, 2.0))
        for row in result.rows:
            assert row.get("E[X] rho=0.5") <= row.get("E[X] rho=1") \
                <= row.get("E[X] rho=2")
        high_rho = result.column("E[X] rho=2")
        assert high_rho[-1] / high_rho[0] > 5.0     # drastic growth with n

    def test_cross_check_with_full_chain_is_active(self):
        # Should not raise: lumped and full chains agree for n <= 5.
        run_scenario("figure5", n_values=(3, 4), rho_values=(1.0,),
                     cross_check_full_chain_up_to=5)

    def test_rejects_single_process(self):
        with pytest.raises(ValueError):
            run_scenario("figure5", n_values=(1,), rho_values=(1.0,))


class TestFigure5FullChain:
    def test_full_chain_crosses_into_sparse_and_agrees(self):
        result = run_scenario("figure5_full_chain", n_values=(4, 10),
                              rho_values=(1.0,))
        labels = [row.label for row in result.rows]
        assert labels == ["n=4 [dense]", "n=10 [sparse]"]
        assert max(result.column("max rel err")) < 1e-6
        # Same qualitative shape as Figure 5: E[X] grows with n.
        ex = result.column("E[X] rho=1")
        assert ex[1] > ex[0]

    def test_matches_plain_figure5_values(self):
        full = run_scenario("figure5_full_chain", n_values=(4, 6),
                            rho_values=(0.5, 2.0))
        lumped = run_scenario("figure5", n_values=(4, 6), rho_values=(0.5, 2.0))
        for row_full, row_lumped in zip(full.rows, lumped.rows):
            for rho in ("0.5", "2"):
                assert row_full.get(f"E[X] rho={rho}") == pytest.approx(
                    row_lumped.get(f"E[X] rho={rho}"), rel=1e-8)

    def test_rejects_single_process(self):
        with pytest.raises(ValueError):
            run_scenario("figure5_full_chain", n_values=(1,),
                         rho_values=(1.0,))


class TestHeterogeneousSweep:
    def test_parameter_family_shapes(self):
        params = SystemParameters.heterogeneous(5, mu_gradient=2.0,
                                                locality=1.0)
        assert params.n == 5
        assert params.mu[0] == pytest.approx(1.0)
        assert params.mu[-1] == pytest.approx(2.0)
        # Interaction rate decays with process distance.
        assert params.lam[0, 1] > params.lam[0, 4]
        with pytest.raises(ValueError):
            SystemParameters.heterogeneous(3, mu_gradient=0.0)
        with pytest.raises(ValueError):
            SystemParameters.heterogeneous(3, locality=-1.0)

    def test_symmetric_limit_recovers_lumped_chain(self):
        from repro.markov.simplified import SimplifiedChain

        params = SystemParameters.heterogeneous(6, mu_gradient=1.0,
                                                locality=0.0, lam_base=0.4)
        model_mean = run_scenario("heterogeneous_sweep", n=6,
                                  mu_gradients=(1.0,), lam_base=0.4,
                                  locality=0.0).rows[0].get("E[X]")
        truth = SimplifiedChain(n=6, mu=1.0, lam=0.4).mean_interval()
        assert params.is_symmetric()
        assert model_mean == pytest.approx(truth, rel=1e-8)

    def test_gradient_shortens_interval_and_unbalances_completion(self):
        result = run_scenario("heterogeneous_sweep", n=7,
                              mu_gradients=(1.0, 3.0))
        ex = result.column("E[X]")
        ratios = result.column("q max/min")
        # Raising some mu_i shortens the interval, and the completion split
        # concentrates on the fast-checkpointing processes.
        assert ex[1] < ex[0]
        assert ratios[1] > ratios[0] >= 1.0


class TestFigure6:
    def test_density_peaks_near_zero(self):
        result = run_scenario("figure6")
        for row in result.rows:
            assert row.get("f(0)") > row.get("f(0.4)") > row.get("f(2)")

    def test_case1_density_at_zero_is_total_mu(self):
        result = run_scenario("figure6")
        assert result.rows[0].get("f(0)") == pytest.approx(3.0)
        assert result.rows[1].get("f(0)") == pytest.approx(1.5)

    def test_curves_shape(self):
        times, curves = figure6_curves(t_max=2.0, n_points=41)
        assert times.shape == (41,)
        assert set(curves) == {"case 1", "case 2", "case 3"}
        for values in curves.values():
            assert values.shape == (41,) and np.all(values >= 0.0)


class TestSectionAnalyses:
    def test_sync_loss_monotone_in_n_and_heterogeneity(self):
        result = run_scenario("sync_loss", n_values=(2, 3, 4),
                              heterogeneity=(1.0, 2.0))
        cl1 = result.column("CL h=1")
        assert cl1 == sorted(cl1)
        for row in result.rows:
            assert row.get("CL h=2") >= row.get("CL h=1")

    def test_sync_loss_validation_close(self):
        result = run_scenario("sync_loss_validation", seed=2, n=3,
                              work=250.0)
        assert result.rows[0].get("relative error") < 0.25

    def test_prp_costs_shape(self):
        result = run_scenario("prp_costs", n_values=(2, 3, 4, 6))
        assert result.column("extra time per RP") == sorted(
            result.column("extra time per RP"))
        ratios = result.column("bound / E[X]")
        assert ratios[-1] < ratios[0]   # PRP advantage grows with n


class TestValidationAndAblation:
    def test_three_way_validation_agrees(self):
        result = run_scenario("validation", seed=3, reps=4000, cases=(1,),
                              history_duration=900.0)
        row = result.rows[0]
        assert row.get("MC rel err") < 0.1
        # The history-level estimate uses far fewer intervals (one long trajectory)
        # and X has a heavy-tailed phase-type distribution, so the tolerance is
        # looser than for the direct Monte-Carlo estimate.
        assert row.get("history rel err") < 0.2

    def test_detector_ablation_exact_is_denser(self):
        result = run_scenario("detector_ablation", seed=5, cases=(1,),
                              duration=150.0)
        row = result.rows[0]
        assert row.get("exact lines") >= row.get("latest-RP lines")
        assert row.get("conservatism") >= 1.0

    def test_solver_ablation_tiny_difference(self):
        result = run_scenario("solver_ablation", case=1)
        assert max(result.column("abs diff")) < 1e-6
