"""Unit tests for the checkpoint store and run reports."""

import pytest

from repro.core.types import CheckpointKind, RecoveryPoint
from repro.recovery.checkpoint import CheckpointStore, SavedState
from repro.recovery.report import ProcessReport, RunReport


def _rp(process, index, time, kind=CheckpointKind.REGULAR, origin=None):
    return RecoveryPoint(time=time, process=process, index=index, kind=kind,
                         origin=origin)


class TestCheckpointStore:
    def test_initial_states_present(self):
        store = CheckpointStore(3)
        assert store.count() == 3
        for pid in range(3):
            assert store.latest_regular(pid).kind is CheckpointKind.INITIAL

    def test_save_and_lookup(self):
        store = CheckpointStore(2)
        rp = _rp(0, 1, 2.0)
        saved = store.save(rp, work_done=1.5, contaminated=False)
        assert store.lookup(rp) == saved
        assert saved.work_done == 1.5

    def test_lookup_missing_raises(self):
        store = CheckpointStore(1)
        with pytest.raises(KeyError):
            store.lookup(_rp(0, 5, 1.0))

    def test_latest_regular_ignores_pseudo(self):
        store = CheckpointStore(2)
        store.save(_rp(0, 1, 1.0), work_done=1.0)
        store.save(_rp(0, 2, 2.0, kind=CheckpointKind.PSEUDO, origin=(1, 1)),
                   work_done=2.0)
        assert store.latest_regular(0).index == 1
        assert store.latest_regular(0, before=0.5).kind is CheckpointKind.INITIAL

    def test_pseudo_for_origin(self):
        store = CheckpointStore(2)
        store.save(_rp(1, 1, 1.0, kind=CheckpointKind.PSEUDO, origin=(0, 3)),
                   work_done=0.7)
        assert store.pseudo_for_origin(1, (0, 3)).work_done == 0.7
        assert store.pseudo_for_origin(1, (0, 9)) is None

    def test_counting_and_peak(self):
        store = CheckpointStore(2)
        for idx in range(1, 4):
            store.save(_rp(0, idx, float(idx)), work_done=float(idx))
        assert store.count(0) == 4 and store.count() == 5
        assert store.peak_count == 5
        assert store.total_saves == 5  # includes the two initial states

    def test_purge_before_keeps_latest_regular_and_initial(self):
        store = CheckpointStore(1)
        store.save(_rp(0, 1, 1.0), work_done=1.0)
        store.save(_rp(0, 2, 2.0), work_done=2.0)
        purged = store.purge_before(0, 5.0)
        assert purged == 1                       # the RP at 1.0
        assert store.latest_regular(0).index == 2
        assert store.get(0, 0) is not None       # initial state survives

    def test_purge_obsolete_pseudo_lines(self):
        store = CheckpointStore(2)
        # P1 takes RP index 1; a PRP for it is implanted in P2.
        store.save(_rp(0, 1, 1.0), work_done=1.0)
        store.save(_rp(1, 1, 1.1, kind=CheckpointKind.PSEUDO, origin=(0, 1)),
                   work_done=1.0)
        # P1 takes a newer RP index 2 with its PRP.
        store.save(_rp(0, 2, 2.0), work_done=2.0)
        store.save(_rp(1, 2, 2.1, kind=CheckpointKind.PSEUDO, origin=(0, 2)),
                   work_done=2.0)
        purged = store.purge_obsolete_pseudo_lines()
        assert purged >= 2
        # The PRP for the *current* RP of P1 survives, the stale one does not.
        assert store.pseudo_for_origin(1, (0, 2)) is not None
        assert store.pseudo_for_origin(1, (0, 1)) is None
        # P1's latest RP survives, its older one is gone.
        assert store.get(0, 2) is not None and store.get(0, 1) is None

    def test_total_size_uses_state_size(self):
        store = CheckpointStore(2, state_size=4.0)
        assert store.total_size() == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(0)
        with pytest.raises(ValueError):
            CheckpointStore(1, state_size=0.0)

    def test_saved_state_matches(self):
        rp = _rp(0, 1, 1.0)
        state = SavedState(process=0, index=1, time=1.0,
                           kind=CheckpointKind.REGULAR, work_done=0.5)
        assert state.matches(rp)
        assert not state.matches(_rp(0, 2, 1.0))


class TestRunReport:
    def _report(self, **overrides):
        process = ProcessReport(process=0, finish_time=10.0, useful_work=10.0,
                                lost_work=1.0, checkpoint_overhead=0.5,
                                restart_overhead=0.2, waiting_time=0.3,
                                checkpoints_taken=5, pseudo_checkpoints_taken=0,
                                rollbacks=1)
        defaults = dict(scheme="test", seed=1, n_processes=1, completed=True,
                        makespan=10.0, ideal_makespan=8.0, processes=(process,),
                        rollback_count=1, rollback_distances=(2.0,),
                        lost_work_total=1.0, checkpoint_overhead_total=0.5,
                        restart_overhead_total=0.2, waiting_time_total=0.3,
                        recovery_lines_committed=0, domino_count=0,
                        peak_saved_states=6, total_saves=6)
        defaults.update(overrides)
        return RunReport(**defaults)

    def test_derived_metrics(self):
        report = self._report()
        assert report.slowdown == pytest.approx(10.0 / 8.0)
        assert report.mean_rollback_distance == 2.0
        assert report.max_rollback_distance == 2.0
        assert report.overhead_ratio == pytest.approx((1.0 + 0.5 + 0.2 + 0.3) / 8.0)

    def test_no_rollbacks_distances_zero(self):
        report = self._report(rollback_distances=(), rollback_count=0)
        assert report.mean_rollback_distance == 0.0
        assert report.max_rollback_distance == 0.0

    def test_per_process_lookup(self):
        report = self._report()
        assert report.per_process(0).total_overhead == pytest.approx(1.0)
        with pytest.raises(KeyError):
            report.per_process(3)

    def test_summary_keys(self):
        summary = self._report().summary()
        assert {"makespan", "rollbacks", "lost_work", "waiting_time",
                "sync_loss"} <= set(summary)

    def test_summary_speaks_the_strategy_metric_vocabulary(self):
        from repro.api import STRATEGY_METRICS
        summary = self._report().summary()
        assert set(summary) <= set(STRATEGY_METRICS)
        # schemes without a waiting protocol report zero loss
        assert summary["sync_loss"] == 0.0

    def test_process_report_finished_flag(self):
        unfinished = ProcessReport(process=1, finish_time=None, useful_work=3.0,
                                   lost_work=0.0, checkpoint_overhead=0.0,
                                   restart_overhead=0.0, waiting_time=0.0,
                                   checkpoints_taken=0, pseudo_checkpoints_taken=0,
                                   rollbacks=0)
        assert not unfinished.finished
