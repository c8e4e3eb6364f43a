"""Unit tests for repro.core.parameters."""

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.markov.recovery_line_interval import RecoveryLineIntervalModel


class TestConstruction:
    def test_symmetric_factory(self):
        p = SystemParameters.symmetric(4, mu=2.0, lam=0.5)
        assert p.n == 4
        assert np.allclose(p.mu, 2.0)
        assert p.lam[0, 1] == 0.5 and p.lam[2, 2] == 0.0

    def test_three_process_factory_matches_paper_layout(self):
        p = SystemParameters.three_process((1.5, 1.0, 0.5), (1.0, 2.0, 3.0))
        assert p.pair_rate(0, 1) == 1.0   # lambda_12
        assert p.pair_rate(1, 2) == 2.0   # lambda_23
        assert p.pair_rate(2, 0) == 3.0   # lambda_31

    def test_from_pair_rates_defaults_missing_pairs_to_zero(self):
        p = SystemParameters.from_pair_rates([1.0, 1.0, 1.0], [(0, 1, 2.0)])
        assert p.pair_rate(0, 1) == 2.0
        assert p.pair_rate(1, 2) == 0.0

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            SystemParameters(mu=[1.0, 0.0], lam=np.zeros((2, 2)))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            SystemParameters(mu=[1.0, 1.0], lam=np.zeros((3, 3)))

    def test_rejects_asymmetric_lambda(self):
        lam = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            SystemParameters(mu=[1.0, 1.0], lam=lam)

    def test_three_process_requires_three_values(self):
        with pytest.raises(ValueError):
            SystemParameters.three_process((1.0, 1.0), (1.0, 1.0, 1.0))

    def test_arrays_are_read_only(self, params_case1):
        with pytest.raises(ValueError):
            params_case1.mu[0] = 5.0


class TestDerivedQuantities:
    def test_totals(self, params_case2):
        assert params_case2.total_rp_rate == pytest.approx(3.0)
        assert params_case2.total_interaction_rate == pytest.approx(3.0)

    def test_rho_matches_figure5_caption(self, params_case1):
        # rho = 2 * sum_{i<j} lambda / sum mu = 2*3/3 = 2 for case 1.
        assert params_case1.rho == pytest.approx(2.0)

    def test_pairs_lists_only_positive_rates(self):
        p = SystemParameters.from_pair_rates([1.0] * 3, [(0, 1, 1.0)])
        assert p.pairs == [(0, 1)]

    def test_interaction_rate_of_process(self, params_case1):
        assert params_case1.interaction_rate_of(0) == pytest.approx(2.0)

    def test_uniformization_constant(self, params_case1):
        assert params_case1.uniformization_constant() == pytest.approx(6.0)

    def test_is_symmetric(self, params_case1, params_case2):
        assert params_case1.is_symmetric()
        assert not params_case2.is_symmetric()

    def test_near_symmetric_rates_are_accepted_and_lumped(self):
        # Within allclose's tolerance but not exactly equal: the exact
        # comparison fails, so the allclose fallback must still decide, as
        # it did when it was the only test.
        mu = np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0])
        lam = np.full((4, 4), 0.5)
        np.fill_diagonal(lam, 0.0)
        lam[0, 1] += 1e-9                    # lam[1, 0] stays 0.5
        lam[2, 3] -= 1e-9
        lam[3, 2] -= 1e-9
        p = SystemParameters(mu=mu, lam=lam)
        off = p.lam[~np.eye(4, dtype=bool)]
        assert not (p.mu == p.mu[0]).all() and not (off == off[0]).all()
        assert np.allclose(p.mu, p.mu[0], atol=1e-12)
        assert np.allclose(off, off[0], atol=1e-12)
        assert p.is_symmetric()
        model = RecoveryLineIntervalModel(p)
        assert model.analytic_backend == "lumped"
        assert not SystemParameters(mu=mu * np.array([1, 1, 1, 1.1]),
                                    lam=lam).is_symmetric()

    def test_scaled_preserves_rho(self, params_case2):
        scaled = params_case2.scaled(3.0)
        assert scaled.rho == pytest.approx(params_case2.rho)
        assert scaled.total_rp_rate == pytest.approx(9.0)

    def test_with_rho_rescales_lambda_only(self, params_case1):
        adjusted = params_case1.with_rho(1.0)
        assert adjusted.rho == pytest.approx(1.0)
        assert np.allclose(adjusted.mu, params_case1.mu)

    def test_with_rho_zero_interactions_error(self):
        p = SystemParameters(mu=[1.0, 1.0], lam=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.with_rho(1.0)

    def test_describe_mentions_every_pair(self, params_case1):
        text = params_case1.describe()
        assert "n=3" in text and "ρ=" in text
