"""Unit tests for the model-level Monte Carlo sampler and the density helpers."""

import numpy as np
import pytest

from repro.core.intervals import extract_intervals
from repro.core.parameters import SystemParameters
from repro.markov.density import density_curve, density_mass_check, interval_cdf, interval_density
from repro.markov.montecarlo import ModelSimulator, SimulatedIntervals
from repro.markov.recovery_line_interval import RecoveryLineIntervalModel


class TestModelSimulator:
    def test_reproducible_with_seed(self, params_case1):
        a = ModelSimulator(params_case1, seed=5).sample_intervals(200)
        b = ModelSimulator(params_case1, seed=5).sample_intervals(200)
        assert np.allclose(a.lengths, b.lengths)
        assert np.array_equal(a.rp_counts, b.rp_counts)

    def test_different_seeds_differ(self, params_case1):
        a = ModelSimulator(params_case1, seed=1).sample_intervals(50)
        b = ModelSimulator(params_case1, seed=2).sample_intervals(50)
        assert not np.allclose(a.lengths, b.lengths)

    def test_mean_interval_converges_to_analytic(self, params_case1):
        analytic = RecoveryLineIntervalModel(params_case1).mean_interval()
        sim = ModelSimulator(params_case1, seed=3).sample_intervals(8000)
        assert sim.mean_interval() == pytest.approx(analytic, rel=0.06)

    def test_rp_counts_converge_to_wald(self, params_case2):
        sim = ModelSimulator(params_case2, seed=4).sample_intervals(8000)
        expected = params_case2.mu * RecoveryLineIntervalModel(
            params_case2, prefer_simplified=False).mean_interval()
        assert np.allclose(sim.mean_rp_counts("all"), expected, rtol=0.08)

    def test_completing_process_consistency(self, params_case1):
        sim = ModelSimulator(params_case1, seed=6).sample_intervals(300)
        # Every interval's completing process must have at least one RP recorded.
        rows = np.arange(sim.n_samples)
        assert np.all(sim.rp_counts[rows, sim.completing_process] >= 1)
        assert sim.completion_frequencies().sum() == pytest.approx(1.0)

    def test_interior_counts_are_all_minus_one_for_completer(self, params_case1):
        sim = ModelSimulator(params_case1, seed=7).sample_intervals(100)
        diff = sim.mean_rp_counts("all").sum() - sim.mean_rp_counts("interior").sum()
        assert diff == pytest.approx(1.0)

    def test_requires_positive_intervals(self, params_case1):
        with pytest.raises(ValueError):
            ModelSimulator(params_case1, seed=1).sample_intervals(0)

    def test_rejects_all_zero_rates(self):
        params = SystemParameters(mu=[1.0], lam=np.zeros((1, 1)))
        # A single process with mu > 0 is fine (every RP forms a line) …
        sim = ModelSimulator(params, seed=1).sample_intervals(100)
        assert sim.mean_interval() == pytest.approx(1.0, rel=0.3)

    def test_generate_history_respects_duration(self, params_case1):
        history = ModelSimulator(params_case1, seed=8).generate_history(25.0)
        assert history.end_time <= 25.0
        assert len(history.checkpoints(0)) > 1

    def test_history_intervals_match_analytic_mean(self, params_case1):
        history = ModelSimulator(params_case1, seed=9).generate_history(800.0)
        observations = extract_intervals(history)
        mean = np.mean([obs.length for obs in observations])
        analytic = RecoveryLineIntervalModel(params_case1).mean_interval()
        assert mean == pytest.approx(analytic, rel=0.15)


class TestSimulatedIntervalsContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedIntervals(lengths=np.ones(3), rp_counts=np.ones((2, 2)),
                               completing_process=np.zeros(3, dtype=int))

    def test_stderr_positive(self, params_case1):
        sim = ModelSimulator(params_case1, seed=10).sample_intervals(50)
        assert sim.interval_stderr() > 0.0


class TestDensityHelpers:
    def test_density_and_cdf_are_consistent(self, params_case1):
        t = np.linspace(0.0, 5.0, 501)
        pdf = np.asarray(interval_density(params_case1, t))
        cdf = np.asarray(interval_cdf(params_case1, t))
        numeric_cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1])
                                                       * np.diff(t))))
        assert np.allclose(cdf - cdf[0], numeric_cdf, atol=5e-3)

    def test_density_curve_shape(self, params_case1):
        t, f = density_curve(params_case1, t_max=2.0, n_points=41)
        assert t.shape == f.shape == (41,)
        assert f[0] == pytest.approx(params_case1.total_rp_rate)  # f(0) = sum mu
        assert np.all(f >= 0.0)

    def test_density_mass_close_to_one(self, params_case1):
        assert density_mass_check(params_case1, t_max=60.0) == pytest.approx(1.0, abs=0.02)

    def test_density_curve_validates_arguments(self, params_case1):
        with pytest.raises(ValueError):
            density_curve(params_case1, t_max=-1.0)
        with pytest.raises(ValueError):
            density_curve(params_case1, n_points=1)
