"""Unit tests for the checkpoint store and run reports."""

import pytest

from repro.core.types import CheckpointKind
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.report import ProcessReport, RunReport

REGULAR, PSEUDO, INITIAL = (CheckpointKind.REGULAR, CheckpointKind.PSEUDO,
                            CheckpointKind.INITIAL)


def _add(store, process, index, time, kind=REGULAR, origin=None):
    """Give *store* a checkpoint row (a history row) and return it."""
    row = (time, kind, index, origin, time, False, None)
    store.add(process, row)
    return row


class TestCheckpointStore:
    def test_initial_states_present(self):
        store = CheckpointStore(3)
        assert store.count() == 3
        for pid in range(3):
            assert store.latest_regular_row(pid)[1] is INITIAL

    def test_add_and_retains(self):
        store = CheckpointStore(2)
        row = _add(store, 0, 1, 2.0)
        assert store.retains(0, row)
        # Retention is by identity: an equal row the store was not given
        # is not retained, nor is a row of another process.
        assert not store.retains(0, tuple(list(row)))
        assert not store.retains(1, row)

    def test_latest_regular_ignores_pseudo(self):
        store = CheckpointStore(2)
        regular = _add(store, 0, 1, 1.0)
        _add(store, 0, 2, 2.0, kind=PSEUDO, origin=(1, 1))
        assert store.latest_regular_row(0) is regular
        assert store.latest_regular_row(0, before=0.5)[1] is INITIAL

    def test_counting_and_peak(self):
        store = CheckpointStore(2)
        for idx in range(1, 4):
            _add(store, 0, idx, float(idx))
        assert store.count(0) == 4 and store.count() == 5
        assert store.peak_count == 5
        assert store.total_saves == 5  # includes the two initial states

    def test_purge_before_keeps_latest_regular_and_initial(self):
        store = CheckpointStore(1)
        initial = store.latest_regular_row(0)
        first = _add(store, 0, 1, 1.0)
        second = _add(store, 0, 2, 2.0)
        purged = store.purge_before(0, 5.0)
        assert purged == 1                       # the RP at 1.0
        assert not store.retains(0, first)
        assert store.latest_regular_row(0) is second
        assert store.retains(0, initial)         # initial state survives

    def test_purge_obsolete_pseudo_lines(self):
        store = CheckpointStore(2)
        # P1 takes RP index 1; a PRP for it is implanted in P2.
        old_rp = _add(store, 0, 1, 1.0)
        old_prp = _add(store, 1, 1, 1.1, kind=PSEUDO, origin=(0, 1))
        # P1 takes a newer RP index 2 with its PRP.
        new_rp = _add(store, 0, 2, 2.0)
        new_prp = _add(store, 1, 2, 2.1, kind=PSEUDO, origin=(0, 2))
        purged = store.purge_obsolete_pseudo_lines()
        assert purged == 2
        assert store.count() == 4
        # The PRP for the *current* RP of P1 survives, the stale one does not.
        assert store.retains(1, new_prp) and not store.retains(1, old_prp)
        # P1's latest RP survives, its older one is gone.
        assert store.retains(0, new_rp) and not store.retains(0, old_rp)

    def test_purged_row_is_no_longer_retained(self):
        store = CheckpointStore(1)
        row = _add(store, 0, 1, 1.0)
        _add(store, 0, 2, 2.0)
        store.purge_before(0, 1.5)
        assert not store.retains(0, row)
        assert store.count(0) == 2          # initial state and the RP at 2.0

    def test_add_overwrites_the_same_index(self):
        store = CheckpointStore(1)
        _add(store, 0, 1, 3.0)
        replacement = _add(store, 0, 1, 1.0)
        assert store.count(0) == 2
        assert store.total_saves == 3
        # The overwritten row is gone, so the latest regular state is rescanned.
        assert store.latest_regular_row(0) is replacement

    def test_latest_regular_row_before_a_window(self):
        store = CheckpointStore(1)
        first = _add(store, 0, 1, 1.0)
        _add(store, 0, 2, 2.0)
        _add(store, 0, 3, 3.0)
        assert store.latest_regular_row(0, before=1.5) is first
        assert store.latest_regular_row(0, before=1.0) is first
        assert store.latest_regular_row(0, before=0.0)[1] is INITIAL

    def test_purge_before_may_drop_the_latest_regular(self):
        store = CheckpointStore(1)
        _add(store, 0, 1, 1.0)
        _add(store, 0, 2, 2.0)
        purged = store.purge_before(0, 5.0, keep_latest_regular=False)
        assert purged == 2
        # Only the initial state is left to restart from.
        assert store.latest_regular_row(0)[1] is INITIAL
        assert store.count(0) == 1

    def test_peak_survives_a_purge(self):
        store = CheckpointStore(1)
        for idx in range(1, 4):
            _add(store, 0, idx, float(idx))
        store.purge_before(0, 10.0)
        assert store.count() == 2
        assert store.peak_count == 4
        assert store.total_saves == 4

    def test_prp_lives_until_its_origin_is_superseded(self):
        store = CheckpointStore(2)
        _add(store, 0, 1, 1.0)
        prp = _add(store, 1, 1, 1.0, kind=PSEUDO, origin=(0, 1))
        assert store.purge_obsolete_pseudo_lines() == 0
        assert store.retains(1, prp)
        # P2's own new RP does not touch a PRP implanted for P1's RP.
        _add(store, 1, 2, 1.5)
        store.purge_obsolete_pseudo_lines()
        assert store.retains(1, prp)
        _add(store, 0, 2, 2.0)
        store.purge_obsolete_pseudo_lines()
        assert not store.retains(1, prp)

    def test_section4_purge_keeps_initial_states(self):
        store = CheckpointStore(2)
        initial = store.latest_regular_row(1)
        _add(store, 1, 1, 1.0, kind=PSEUDO, origin=(0, 1))
        # The PRP's origin RP was never retained, so the PRP is obsolete.
        assert store.purge_obsolete_pseudo_lines() == 1
        assert store.retains(1, initial)
        assert store.count() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(0)


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
