"""A strategy run keeps one record: its history and the runtime's counters.

Every checkpoint a runtime takes is one history row that the checkpoint store
indexes, and every delivered message is one row of the interaction columns.
These tests check what only that record shows: that the rows a run writes
form a valid history, which rows the store retains, how PRPs link to the
recovery points they were implanted for, and the synchronized scheme's
request, line and rollback accounting.  The per-process checkpoint counts are
checked in ``test_runtimes.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.history import (CP_CONTAMINATED, CP_INDEX, CP_KIND, CP_ORIGIN,
                                CP_TIME)
from repro.core.types import CheckpointKind
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.pseudo import PseudoRecoveryPointRuntime
from repro.recovery.synchronized import SynchronizedRuntime, SyncStrategy

REGULAR, PSEUDO, INITIAL = (CheckpointKind.REGULAR, CheckpointKind.PSEUDO,
                            CheckpointKind.INITIAL)

FACTORIES = {
    "async": lambda wl, seed: AsynchronousRuntime(wl, seed=seed),
    "prp": lambda wl, seed: PseudoRecoveryPointRuntime(wl, seed=seed),
    "sync": lambda wl, seed: SynchronizedRuntime(wl, seed=seed,
                                                 sync_interval=2.0),
}
SCHEMES = sorted(FACTORIES)


def _run(scheme, workload, seed=11):
    runtime = FACTORIES[scheme](workload, seed)
    return runtime, runtime.run()


def _rows(runtime, pid):
    return runtime.history.checkpoint_rows(pid)[0]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestHistoryRows:
    def test_store_retains_only_history_rows(self, small_workload, scheme):
        runtime, _report = _run(scheme, small_workload)
        for pid in range(runtime.n):
            # The store holds its own initial state; every other state it
            # retains is a history row of that process, by identity.
            retained = sum(runtime.store.retains(pid, row)
                           for row in _rows(runtime, pid)[1:])
            assert retained == runtime.store.count(pid) - 1

    def test_history_is_well_formed_after_a_run(self, small_workload, scheme):
        runtime, report = _run(scheme, small_workload)
        runtime.history.validate()
        for pid in range(runtime.n):
            rows = _rows(runtime, pid)
            assert rows[0][CP_KIND] is INITIAL
            assert [row[CP_INDEX] for row in rows] == list(range(len(rows)))
            assert all(row[CP_TIME] <= report.makespan for row in rows)

    def test_interaction_rows_carry_the_message_latency(self, small_workload,
                                                        scheme):
        workload = dataclasses.replace(small_workload, message_latency=0.125)
        runtime, _report = _run(scheme, workload)
        send, recv, src, dst, _dead = runtime.history.interaction_columns()
        assert send, "the workload interacts"
        assert all(r - s == pytest.approx(0.125) for s, r in zip(send, recv))
        assert all(a != b and 0 <= a < runtime.n and 0 <= b < runtime.n
                   for a, b in zip(src, dst))


@pytest.mark.parametrize("scheme", ["async", "sync"])
class TestPerfectAcceptance:
    """Section 2.1: a perfect acceptance test guards every recovery point."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_recovery_points_are_never_contaminated(self, small_workload,
                                                    scheme, seed):
        runtime, _report = _run(scheme, small_workload, seed)
        assert not any(row[CP_CONTAMINATED] for pid in range(runtime.n)
                       for row in _rows(runtime, pid)
                       if row[CP_KIND] is REGULAR)

    def test_every_rollback_follows_an_injected_error(self, small_workload,
                                                      scheme):
        runtime, report = _run(scheme, small_workload)
        assert report.rollback_count > 0
        assert report.rollback_count <= runtime.errors_injected


class TestPseudoRecoveryPointRecord:
    def test_every_prp_is_implanted_for_another_processes_rp(self,
                                                             small_workload):
        runtime, _report = _run("prp", small_workload)
        history = runtime.history
        for pid in range(runtime.n):
            for row in _rows(runtime, pid):
                if row[CP_KIND] is not PSEUDO:
                    continue
                owner, index = row[CP_ORIGIN]
                assert owner != pid
                origin = [r for r in _rows(runtime, owner)
                          if r[CP_INDEX] == index]
                assert len(origin) == 1
                assert origin[0][CP_KIND] is REGULAR
                assert origin[0][CP_TIME] == row[CP_TIME]
                assert history.pseudo_row(pid, (owner, index)) is row

    def test_purging_shrinks_the_store_but_not_the_history(self,
                                                           faultless_workload):
        kept = PseudoRecoveryPointRuntime(faultless_workload, seed=4,
                                          purge_storage=False)
        purged = PseudoRecoveryPointRuntime(faultless_workload, seed=4)
        kept_report, purged_report = kept.run(), purged.run()
        assert purged.store.count() < kept.store.count()
        assert purged_report.peak_saved_states < kept_report.peak_saved_states
        # Without faults the purge changes no decision, so both runs record
        # the same history.
        for pid in range(faultless_workload.n_processes):
            assert _rows(purged, pid) == _rows(kept, pid)


class TestSynchronizedRecord:
    def test_each_request_commits_a_line_or_rolls_back(self, small_workload):
        runtime, report = _run("sync", small_workload)
        settled = report.recovery_lines_committed + runtime.line_rollbacks
        # The last request may still be open when the run ends.
        assert settled <= runtime.sync_requests <= settled + 1

    def test_line_rollbacks_are_the_runs_rollbacks(self, small_workload):
        runtime, report = _run("sync", small_workload)
        assert runtime.line_rollbacks == report.rollback_count > 0

    def test_line_rollback_kills_the_interactions_since_the_line(
            self, small_workload):
        runtime, _report = _run("sync", small_workload)
        assert runtime.line_rollbacks > 0
        dead = runtime.history.interaction_columns()[4]
        # Messages after the last committed line that the run kept are live.
        assert any(dead) and not all(dead)

    def test_state_count_saves_local_states_between_lines(self,
                                                          faultless_workload):
        runtime = SynchronizedRuntime(faultless_workload, seed=5,
                                      strategy=SyncStrategy.STATE_COUNT,
                                      state_threshold=5)
        report = runtime.run()
        lines = report.recovery_lines_committed
        taken = sum(process.checkpoints_taken for process in report.processes)
        assert lines > 0
        # Every line follows ``state_threshold`` local saves.
        assert taken >= lines * (5 + 1)
        assert runtime.sync_requests >= lines
