"""Property-based tests (hypothesis) on the core invariants.

These cover the model's core invariants: generator validity, phase-type
moment consistency, order-statistics identities, recovery-line consistency,
rollback never crossing a recovery line, and checkpoint-store conservation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.order_statistics import (
    expected_maximum_exponential,
    maximum_exponential_cdf,
)
from repro.analysis.synchronized_loss import computation_loss
from repro.core.history import HistoryDiagram
from repro.core.parameters import SystemParameters
from repro.core.recovery_line import (
    ExactRecoveryLineDetector,
    LatestRPRecoveryLineDetector,
    is_consistent_line,
)
from repro.core.rollback import propagate_rollback
from repro.markov.generator import build_generator, build_phase_type
from repro.markov.split_chain import absorption_by_process, expected_rp_counts
from repro.util.linalg import is_generator_matrix

# ---------------------------------------------------------------------- strategies

rates = st.floats(min_value=0.05, max_value=5.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def system_parameters(draw, max_n=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    mu = [draw(rates) for _ in range(n)]
    lam = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lam[i, j] = lam[j, i] = draw(st.floats(min_value=0.0, max_value=3.0))
    return SystemParameters(mu=mu, lam=lam)


@st.composite
def random_history(draw, max_events=18):
    n = draw(st.integers(min_value=2, max_value=4))
    history = HistoryDiagram(n)
    n_events = draw(st.integers(min_value=0, max_value=max_events))
    t = 0.0
    for _ in range(n_events):
        t += draw(st.floats(min_value=0.01, max_value=1.0))
        if draw(st.booleans()):
            history.add_recovery_point(draw(st.integers(0, n - 1)), t)
        else:
            a = draw(st.integers(0, n - 1))
            b = draw(st.integers(0, n - 1))
            if a != b:
                history.add_interaction(a, b, t)
    return history


# ---------------------------------------------------------------------- markov

class TestMarkovProperties:
    @given(params=system_parameters())
    @settings(max_examples=25, deadline=None)
    def test_generator_rows_sum_to_zero(self, params):
        H, space = build_generator(params)
        assert is_generator_matrix(H)
        assert np.allclose(H[space.absorbing_index], 0.0)

    @given(params=system_parameters())
    @settings(max_examples=20, deadline=None)
    def test_mean_interval_positive_and_bounded_below(self, params):
        ph = build_phase_type(params)
        mean = ph.mean()
        # The next line cannot form before the first recovery point anywhere:
        # E[X] >= 1 / (sum mu).
        assert mean >= 1.0 / params.total_rp_rate - 1e-12
        # Second moment dominates the squared mean (variance non-negative).
        assert ph.moment(2) >= mean * mean - 1e-9

    @given(params=system_parameters())
    @settings(max_examples=20, deadline=None)
    def test_wald_identity_and_completion_probabilities(self, params):
        mean = build_phase_type(params).mean()
        all_counts = expected_rp_counts(params, counting="all")
        interior = expected_rp_counts(params, counting="interior")
        q = absorption_by_process(params)
        assert np.allclose(all_counts, params.mu * mean, rtol=1e-8)
        assert q.sum() == pytest.approx(1.0)
        assert np.all(all_counts - interior >= -1e-12)

    @given(params=system_parameters(max_n=3),
           t=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_cdf_is_monotone_probability(self, params, t):
        ph = build_phase_type(params)
        cdf_t = ph.cdf(t)
        assert -1e-9 <= cdf_t <= 1.0 + 1e-9
        assert ph.cdf(t + 1.0) >= cdf_t - 1e-9


# ---------------------------------------------------------------------- analysis

class TestOrderStatisticsProperties:
    @given(mu=st.lists(rates, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_maximum_dominates_every_component_mean(self, mu):
        mean_max = expected_maximum_exponential(mu)
        assert mean_max >= max(1.0 / r for r in mu) - 1e-9
        assert mean_max <= sum(1.0 / r for r in mu) + 1e-9

    @given(mu=st.lists(rates, min_size=1, max_size=5),
           t=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_cdf_in_unit_interval_and_monotone(self, mu, t):
        value = maximum_exponential_cdf(mu, t)
        later = maximum_exponential_cdf(mu, t + 0.5)
        assert 0.0 <= value <= 1.0
        assert later >= value - 1e-12

    @given(mu=st.lists(rates, min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_synchronized_loss_nonnegative_and_subadditive(self, mu):
        loss = computation_loss(mu)
        assert loss >= -1e-9
        # Total loss is at most (n-1) times the mean waiting of the slowest.
        assert loss <= (len(mu)) * expected_maximum_exponential(mu) + 1e-9


# ---------------------------------------------------------------------- histories

class TestHistoryProperties:
    @given(history=random_history())
    @settings(max_examples=30, deadline=None)
    def test_detected_lines_are_consistent_and_ordered(self, history):
        lines = ExactRecoveryLineDetector().find_lines(history)
        times = [line.formation_time for line in lines]
        assert times == sorted(times)
        for line in lines:
            assert is_consistent_line(history, dict(line.points))

    @given(history=random_history())
    @settings(max_examples=30, deadline=None)
    def test_latest_rp_detector_never_finds_more_lines_than_exact(self, history):
        exact = ExactRecoveryLineDetector().find_lines(history)
        latest = LatestRPRecoveryLineDetector().find_lines(history)
        assert len(latest) <= len(exact)

    @given(history=random_history(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rollback_restart_is_consistent_and_behind_failure(self, history, data):
        failed = data.draw(st.integers(0, history.n_processes - 1))
        failure_time = history.end_time + 0.5
        result = propagate_rollback(history, failed, failure_time)
        # Restart points never lie after the failure and form a consistent cut.
        for rp in result.restart_points.values():
            assert rp.time <= failure_time
        assert is_consistent_line(history, dict(result.restart_points))
        assert result.max_distance <= failure_time + 1e-9

    @given(history=random_history())
    @settings(max_examples=20, deadline=None)
    def test_intervals_sum_to_span_of_lines(self, history):
        detector = LatestRPRecoveryLineDetector()
        lines = detector.find_lines(history)
        intervals = detector.intervals(history)
        if intervals:
            total = sum(intervals)
            assert total == pytest.approx(lines[-1].formation_time
                                          - lines[0].formation_time)
