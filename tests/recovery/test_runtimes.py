"""Integration-style tests for the three recovery-scheme runtimes."""

import numpy as np
import pytest

from repro.core.types import CheckpointKind
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.pseudo import PseudoRecoveryPointRuntime
from repro.recovery.synchronized import SynchronizedRuntime, SyncStrategy
from repro.workloads.generators import homogeneous_workload, pipeline_workload

REGULAR, PSEUDO = CheckpointKind.REGULAR, CheckpointKind.PSEUDO

ALL_RUNTIMES = [
    ("async", lambda wl, seed: AsynchronousRuntime(wl, seed=seed)),
    ("prp", lambda wl, seed: PseudoRecoveryPointRuntime(wl, seed=seed)),
    ("sync", lambda wl, seed: SynchronizedRuntime(wl, seed=seed,
                                                  sync_interval=2.0)),
]


class TestCommonBehaviour:
    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_completes_workload(self, small_workload, name, factory):
        report = factory(small_workload, 1).run()
        assert report.completed
        assert report.makespan >= small_workload.ideal_completion_time()
        for process in report.processes:
            assert process.useful_work == pytest.approx(
                small_workload.work_per_process)

    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_deterministic_given_seed(self, small_workload, name, factory):
        a = factory(small_workload, 7).run()
        b = factory(small_workload, 7).run()
        assert a.makespan == b.makespan
        assert a.rollback_count == b.rollback_count
        assert a.total_saves == b.total_saves

    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_faultless_run_has_no_rollbacks(self, faultless_workload, name, factory):
        report = factory(faultless_workload, 3).run()
        assert report.rollback_count == 0
        assert report.lost_work_total == 0.0
        assert report.domino_count == 0

    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_runtime_cannot_run_twice(self, small_workload, name, factory):
        runtime = factory(small_workload, 5)
        runtime.run()
        with pytest.raises(RuntimeError):
            runtime.run()

    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_checkpoint_overhead_scales_with_cost(self, faultless_workload, name,
                                                  factory):
        cheap = factory(faultless_workload.with_checkpoint_cost(0.0), 4).run()
        pricey = factory(faultless_workload.with_checkpoint_cost(0.05), 4).run()
        assert pricey.checkpoint_overhead_total >= cheap.checkpoint_overhead_total
        assert cheap.checkpoint_overhead_total == 0.0

    @pytest.mark.parametrize("name,factory", ALL_RUNTIMES)
    def test_history_contains_recorded_checkpoints(self, small_workload, name,
                                                   factory):
        runtime = factory(small_workload, 6)
        report = runtime.run()
        history = runtime.history
        for process in report.processes:
            pid = process.process
            assert len(history.checkpoints(pid, kinds=(REGULAR,))) \
                == process.checkpoints_taken
            assert len(history.checkpoints(pid, kinds=(PSEUDO,))) \
                == process.pseudo_checkpoints_taken
        # The store saw the n initial states plus one add per history row.
        assert report.total_saves == sum(
            len(history.checkpoint_rows(pid)[0])
            for pid in range(small_workload.n_processes))


class TestAsynchronousSpecifics:
    def test_rollbacks_happen_under_faults(self, small_workload):
        report = AsynchronousRuntime(small_workload, seed=11).run()
        assert report.rollback_count > 0
        assert report.lost_work_total > 0.0
        assert all(d >= 0.0 for d in report.rollback_distances)

    def test_saved_states_grow_without_purging(self, small_workload):
        growing = AsynchronousRuntime(small_workload, seed=2).run()
        purged = AsynchronousRuntime(small_workload, seed=2,
                                     purge_behind_recovery_lines=True).run()
        assert purged.peak_saved_states <= growing.peak_saved_states

    def test_extra_metrics_present(self, small_workload):
        report = AsynchronousRuntime(small_workload, seed=8).run()
        assert "acceptance_tests" in report.extra


class TestSynchronizedSpecifics:
    def test_commits_recovery_lines(self, small_workload):
        report = SynchronizedRuntime(small_workload, seed=3,
                                     sync_interval=2.0).run()
        assert report.recovery_lines_committed > 0
        assert report.waiting_time_total > 0.0

    def test_storage_stays_bounded(self, small_workload):
        report = SynchronizedRuntime(small_workload, seed=3,
                                     sync_interval=2.0).run()
        # Only the last committed line plus in-flight saves need to be retained.
        assert report.peak_saved_states <= 4 * small_workload.n_processes

    @pytest.mark.parametrize("strategy", [SyncStrategy.CONSTANT_INTERVAL,
                                          SyncStrategy.ELAPSED_TIME,
                                          SyncStrategy.STATE_COUNT])
    def test_all_strategies_complete(self, small_workload, strategy):
        report = SynchronizedRuntime(small_workload, seed=5, strategy=strategy,
                                     sync_interval=2.0, state_threshold=5).run()
        assert report.completed

    def test_mean_sync_loss_close_to_analytic_without_faults(self, faultless_workload):
        from repro.analysis.synchronized_loss import computation_loss

        runtime = SynchronizedRuntime(
            faultless_workload.with_work(300.0).with_checkpoint_cost(0.0),
            seed=17, sync_interval=3.0)
        runtime.run()
        analytic = computation_loss(faultless_workload.params.mu)
        assert runtime.mean_sync_loss() == pytest.approx(analytic, rel=0.2)

    def test_parameter_validation(self, small_workload):
        with pytest.raises(ValueError):
            SynchronizedRuntime(small_workload, sync_interval=0.0)
        with pytest.raises(ValueError):
            SynchronizedRuntime(small_workload, state_threshold=0)


class TestPseudoSpecifics:
    def test_prps_are_implanted_for_every_rp(self, small_workload):
        runtime = PseudoRecoveryPointRuntime(small_workload, seed=4)
        report = runtime.run()
        rps = sum(p.checkpoints_taken for p in report.processes)
        prps = sum(p.pseudo_checkpoints_taken for p in report.processes)
        # Each RP triggers up to (n-1) PRPs (fewer once peers have finished).
        assert prps > 0
        assert prps <= rps * (small_workload.n_processes - 1)

    def test_storage_bounded_by_purging(self, small_workload):
        purged = PseudoRecoveryPointRuntime(small_workload, seed=4).run()
        hoarding = PseudoRecoveryPointRuntime(small_workload, seed=4,
                                              purge_storage=False).run()
        assert purged.peak_saved_states <= hoarding.peak_saved_states
        assert purged.peak_saved_states <= 4 * small_workload.n_processes ** 2

    def test_rollback_distance_shorter_than_async_on_average(self):
        workload = pipeline_workload(n=4, work=25.0, error_rate=0.06)
        async_distances, prp_distances = [], []
        for seed in range(6):
            async_distances.append(AsynchronousRuntime(workload, seed=seed).run()
                                   .mean_rollback_distance)
            prp_distances.append(PseudoRecoveryPointRuntime(workload, seed=seed).run()
                                 .mean_rollback_distance)
        assert np.mean(prp_distances) <= np.mean(async_distances) * 1.25

    def test_extra_metrics_track_implantation(self, small_workload):
        runtime = PseudoRecoveryPointRuntime(small_workload, seed=4)
        report = runtime.run()
        prps = sum(len(runtime.history.checkpoints(pid, kinds=(PSEUDO,)))
                   for pid in range(small_workload.n_processes))
        assert report.extra["prp_implanted"] == prps > 0
        assert report.extra["implantation_overhead"] == pytest.approx(
            prps * small_workload.checkpoint_cost)
