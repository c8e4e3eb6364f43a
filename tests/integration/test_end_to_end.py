"""End-to-end integration tests tying the substrate to the paper's narrative."""

import numpy as np
import pytest

from repro.core.intervals import extract_intervals
from repro.core.recovery_line import ExactRecoveryLineDetector
from repro.core.rollback import propagate_rollback
from repro.experiments.strategy_comparison import (
    METRIC_COLUMNS,
    run_strategy_comparison,
)
from repro.markov.recovery_line_interval import RecoveryLineIntervalModel
from repro.recovery import make_runtime
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.pseudo import PseudoRecoveryPointRuntime
from repro.recovery.synchronized import SynchronizedRuntime
from repro.workloads.generators import homogeneous_workload, realtime_control_workload
from repro.workloads.trace import figure1_trace


class TestDominoNarrative:
    """E8: the Figure 1 story, executed end to end."""

    def test_domino_effect_without_checkpoints(self):
        # Processes that interact but never checkpoint roll back to the start.
        workload = homogeneous_workload(n=3, mu=1.0, lam=2.0, work=5.0,
                                        error_rate=0.0)
        history = figure1_trace().to_history()
        # Strip the recovery points: rolling back from the end must reach t=0.
        from repro.core.history import HistoryDiagram

        bare = HistoryDiagram(3)
        for interaction in history.interactions:
            bare.add_interaction(interaction.source, interaction.target,
                                 interaction.time)
        result = propagate_rollback(bare, failed_process=0, failure_time=6.2)
        assert result.domino
        assert result.max_distance == pytest.approx(6.2)

    def test_figure1_rollback_stops_at_recovery_line(self, figure1_history):
        result = propagate_rollback(figure1_history, 0, 6.2)
        lines = ExactRecoveryLineDetector().find_lines(figure1_history)
        restart_times = {pid: rp.time for pid, rp in result.restart_points.items()}
        # The restart assignment *is* one of the detected recovery lines.
        assert any({pid: rp.time for pid, rp in line.points.items()} == restart_times
                   for line in lines)


class TestAnalyticRuntimeAgreement:
    def test_async_runtime_checkpoint_rate_matches_mu(self, faultless_workload):
        report = AsynchronousRuntime(faultless_workload, seed=21).run()
        for process in report.processes:
            # Working time ~= work_per_process; checkpoints ~ Poisson(mu * work).
            expected = faultless_workload.params.mu[process.process] * \
                faultless_workload.work_per_process
            assert process.checkpoints_taken == pytest.approx(expected, rel=0.5)

    def test_async_runtime_interval_structure_matches_model(self):
        workload = homogeneous_workload(n=3, mu=1.0, lam=1.0, work=250.0,
                                        error_rate=0.0, checkpoint_cost=0.0)
        runtime = AsynchronousRuntime(workload, seed=23)
        runtime.run()
        observations = extract_intervals(runtime.history)
        measured = np.mean([obs.length for obs in observations])
        analytic = RecoveryLineIntervalModel(workload.params).mean_interval()
        assert measured == pytest.approx(analytic, rel=0.2)


class TestStrategyComparisonExperiment:
    def test_comparison_reports_all_schemes(self, small_workload):
        result = run_strategy_comparison(small_workload, replications=2,
                                         base_seed=40)
        assert [row.label for row in result.rows] == ["asynchronous", "synchronized",
                                                      "pseudo"]
        for row in result.rows:
            assert row.get("makespan") >= small_workload.ideal_completion_time()

    def test_sync_pays_waiting_others_do_not(self, small_workload):
        result = run_strategy_comparison(small_workload, replications=2,
                                         base_seed=41)
        assert result.row("synchronized").get("waiting_time") > 0.0
        assert result.row("asynchronous").get("waiting_time") == 0.0

    def test_async_uses_most_storage(self, small_workload):
        result = run_strategy_comparison(small_workload, replications=2,
                                         base_seed=42)
        assert result.row("asynchronous").get("peak_saved_states") >= \
            result.row("synchronized").get("peak_saved_states")

    def test_comparison_needs_a_replication(self, small_workload):
        with pytest.raises(ValueError, match="at least one replication"):
            run_strategy_comparison(small_workload, replications=0)

    def test_make_runtime_rejects_unknown_scheme(self, small_workload):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            make_runtime("bogus", small_workload)


#: The run-report attribute each comparison column averages.
REPORT_ATTRIBUTES = {
    "makespan": "makespan", "slowdown": "slowdown",
    "rollbacks": "rollback_count",
    "mean_rollback_distance": "mean_rollback_distance",
    "max_rollback_distance": "max_rollback_distance",
    "lost_work": "lost_work_total",
    "checkpoint_overhead": "checkpoint_overhead_total",
    "waiting_time": "waiting_time_total",
    "peak_saved_states": "peak_saved_states",
}


@pytest.fixture(scope="module")
def comparison_and_runs():
    """One comparison and, per scheme, the runs it should average."""
    workload = homogeneous_workload(n=3, mu=1.0, lam=1.0, work=15.0,
                                    error_rate=0.05)
    result = run_strategy_comparison(workload, replications=3, base_seed=60)
    runs = {scheme: [make_runtime(scheme, workload, seed=60 + r).run()
                     for r in range(3)]
            for scheme in ("asynchronous", "synchronized", "pseudo")}
    return result, runs


def test_every_comparison_column_has_a_report_attribute():
    assert sorted(REPORT_ATTRIBUTES) == sorted(METRIC_COLUMNS)


@pytest.mark.parametrize("column", METRIC_COLUMNS)
def test_comparison_column_is_the_mean_of_the_runs(comparison_and_runs,
                                                     column):
    result, runs = comparison_and_runs
    for scheme, reports in runs.items():
        expected = float(np.mean([getattr(r, REPORT_ATTRIBUTES[column])
                                  for r in reports]))
        assert result.row(scheme).get(column) == expected


class TestRealtimeScenario:
    def test_realtime_workload_runs_under_all_schemes(self):
        workload = realtime_control_workload(n=3, work=10.0, error_rate=0.05)
        for cls in (AsynchronousRuntime, PseudoRecoveryPointRuntime):
            assert cls(workload, seed=3).run().completed
        assert SynchronizedRuntime(workload, seed=3, sync_interval=1.0).run().completed
