"""Unit tests for repro.core.rollback (rollback propagation / domino effect)."""

import bisect
import random

import pytest

from repro.core.history import HistoryDiagram
from repro.core.rollback import (is_domino, propagate_rollback,
                                 rollback_distance, rollback_rows)
from repro.core.types import CheckpointKind


class TestBasicPropagation:
    def test_isolated_failure_rolls_back_only_failing_process(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(0, 1.0)
        history.add_recovery_point(1, 1.0)
        result = propagate_rollback(history, failed_process=0, failure_time=2.0)
        assert result.affected == (0,)
        assert result.restart_points[0].time == 1.0
        assert result.max_distance == pytest.approx(1.0)
        assert not result.domino

    def test_message_after_checkpoint_propagates(self, simple_history):
        # P1 fails at 4.0; its RP at 3.0 precedes the message at 2.0, so no
        # propagation is necessary.
        result = propagate_rollback(simple_history, 0, 4.0)
        assert result.affected == (0,)
        # But failing before its last checkpoint forces the peer back too.
        result2 = propagate_rollback(simple_history, 0, 2.5)
        assert set(result2.affected) == {0, 1}
        assert result2.restart_points[1].time == pytest.approx(1.2)

    def test_rollback_to_initial_state_is_domino(self):
        history = HistoryDiagram(2)
        history.add_interaction(0, 1, 0.5)
        result = propagate_rollback(history, 0, 1.0)
        assert result.restart_points[0].kind is CheckpointKind.INITIAL
        assert result.domino
        assert is_domino(history, 0, 1.0)

    def test_figure1_scenario_restarts_at_early_layer(self, figure1_history):
        result = propagate_rollback(figure1_history, failed_process=0,
                                    failure_time=6.2)
        assert set(result.affected) == {0, 1, 2}
        assert result.restart_points[0].time == pytest.approx(1.8)
        assert result.restart_points[1].time == pytest.approx(2.0)
        assert result.restart_points[2].time == pytest.approx(2.1)
        assert result.max_distance == pytest.approx(6.2 - 1.8)
        assert not result.domino

    def test_rollback_distance_shortcut(self, figure1_history):
        assert rollback_distance(figure1_history, 0, 6.2) == pytest.approx(4.4)


class TestFilters:
    def test_checkpoint_filter_can_exclude_regular_rps(self):
        history = HistoryDiagram(1)
        history.add_recovery_point(0, 1.0)
        result = propagate_rollback(history, 0, 2.0,
                                    checkpoint_filter=lambda rp: False)
        assert result.restart_points[0].kind is CheckpointKind.INITIAL

    def test_pseudo_checkpoints_excluded_by_default(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(1, 0.5)
        history.add_recovery_point(0, 1.0, kind=CheckpointKind.PSEUDO, origin=(1, 1))
        result = propagate_rollback(history, 0, 2.0)
        assert result.restart_points[0].kind is CheckpointKind.INITIAL

    def test_pseudo_checkpoints_usable_with_filter(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(1, 0.5)
        history.add_recovery_point(0, 1.0, kind=CheckpointKind.PSEUDO, origin=(1, 1))
        result = propagate_rollback(
            history, 0, 2.0,
            checkpoint_filter=lambda rp: rp.kind is CheckpointKind.PSEUDO)
        assert result.restart_points[0].time == pytest.approx(1.0)

    def test_excluded_interactions_do_not_propagate(self, simple_history):
        interaction = simple_history.interactions[0]
        result = propagate_rollback(simple_history, 0, 2.5,
                                    excluded_interactions={interaction})
        assert result.affected == (0,)


class TestResultMetrics:
    def test_distances_and_total_loss(self, figure1_history):
        result = propagate_rollback(figure1_history, 0, 6.2)
        assert result.distance(0) == pytest.approx(4.4)
        assert result.distance(1) == pytest.approx(4.2)
        assert result.total_lost_computation == pytest.approx(4.4 + 4.2 + 4.1)

    def test_unaffected_process_distance_zero(self, simple_history):
        result = propagate_rollback(simple_history, 0, 4.0)
        assert result.distance(1) == 0.0

    def test_crossed_checkpoints_counted(self, figure1_history):
        result = propagate_rollback(figure1_history, 0, 6.2)
        # P1 discards its RP at 5.0 (one checkpoint crossed).
        assert result.crossed_checkpoints(figure1_history, 0) == 1
        assert result.crossed_checkpoints(figure1_history, 1) == 1

    def test_restart_line_is_consistent(self, figure1_history):
        from repro.core.recovery_line import is_consistent_line

        result = propagate_rollback(figure1_history, 0, 6.2)
        assert is_consistent_line(figure1_history, dict(result.restart_points))

    def test_invalidated_interactions_reported(self, figure1_history):
        result = propagate_rollback(figure1_history, 0, 6.2)
        # All five messages of the figure lie after the restart layer.
        assert len(result.invalidated_interactions) == 5

    def test_invalid_arguments(self, simple_history):
        with pytest.raises(ValueError):
            propagate_rollback(simple_history, 7, 1.0)
        with pytest.raises(ValueError):
            propagate_rollback(simple_history, 0, -1.0)


def _full_sweep_rollback(history, failed_process, failure_time, dead):
    """The propagation fixpoint with every sweep over the whole history and
    a private copy of the dead flags: the plain definition, no windows."""
    def latest_regular(process, pos):
        rows = history.checkpoint_rows(process)[0]
        best = None
        for row in reversed(rows[:pos]):
            if best is not None and row[0] < best[0]:
                break
            if row[1] is not CheckpointKind.PSEUDO:
                best = row
        return best

    horizon = [failure_time] * history.n_processes
    times = history.checkpoint_rows(failed_process)[1]
    first = latest_regular(failed_process,
                           bisect.bisect_right(times, failure_time))
    restart = {failed_process: first}
    horizon[failed_process] = first[0]
    send, recv, src, dst, _ = history.interaction_columns()
    gone = list(dead)
    invalidated, iterations, changed = [], 0, True
    while changed:
        iterations += 1
        changed = False
        for k in range(len(send)):
            if gone[k] or send[k] > failure_time:
                continue
            if not (send[k] > horizon[src[k]] or (
                    recv[k] > horizon[dst[k]] and recv[k] <= failure_time)):
                continue
            gone[k] = True
            invalidated.append(k)
            for process, endpoint in ((src[k], send[k]), (dst[k], recv[k])):
                if horizon[process] >= endpoint:
                    row = latest_regular(process, bisect.bisect_left(
                        history.checkpoint_rows(process)[1], endpoint))
                    restart[process] = row
                    horizon[process] = row[0]
                    changed = True
    return restart, invalidated, iterations


class TestSweepWindow:
    """``rollback_rows`` sweeps only the window past the settled prefix and
    tracks only what it invalidates itself, never copying the history."""

    @pytest.mark.parametrize("seed", range(8))
    def test_many_early_dead_interactions(self, seed):
        rng = random.Random(seed)
        n = 4
        history = HistoryDiagram(n)
        for pid in range(n):
            for _ in range(12):
                history.add_recovery_point(pid, rng.uniform(0.0, 60.0))
        for _ in range(600):
            source, target = rng.sample(range(n), 2)
            send = rng.uniform(0.0, 60.0)
            history.add_interaction(source, target, send, send + 0.01)
        send = history.interaction_columns()[0]
        # Everything before t = 40 was invalidated by earlier rollbacks.
        history.kill_interactions(k for k, t in enumerate(send) if t < 40.0)
        dead = history.interaction_columns()[4]
        before = list(dead)
        swept = 0
        for failed in range(n):
            failure_time = rng.uniform(45.0, 60.0)
            expected = _full_sweep_rollback(history, failed, failure_time,
                                            dead)
            assert rollback_rows(history, failed, failure_time,
                                 dead) == expected
            assert dead == before               # read, never written
            swept += len(expected[1])
        assert swept                            # the sweeps did invalidate
