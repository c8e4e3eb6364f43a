"""Unit tests for repro.core.history."""

import pytest

from repro.core.history import CP_INDEX, CP_KIND, CP_TIME, HistoryDiagram
from repro.core.types import CheckpointKind


class TestConstruction:
    def test_every_process_starts_with_initial_state(self):
        history = HistoryDiagram(3)
        for pid in range(3):
            points = history.checkpoints(pid)
            assert len(points) == 1
            assert points[0].kind is CheckpointKind.INITIAL
            assert points[0].time == 0.0

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            HistoryDiagram(0)

    def test_process_range_checked(self):
        history = HistoryDiagram(2)
        with pytest.raises(ValueError):
            history.add_recovery_point(5, 1.0)
        with pytest.raises(ValueError):
            history.add_interaction(0, 9, 1.0)


class TestCheckpoints:
    def test_indices_increase_per_process(self):
        history = HistoryDiagram(2)
        rp1 = history.add_recovery_point(0, 1.0)
        rp2 = history.add_recovery_point(0, 2.0)
        assert (rp1.index, rp2.index) == (1, 2)

    def test_out_of_order_insertion_kept_sorted(self):
        history = HistoryDiagram(1)
        history.add_recovery_point(0, 5.0)
        history.add_recovery_point(0, 2.0)
        times = [rp.time for rp in history.checkpoints(0)]
        assert times == sorted(times)

    def test_kind_filtering(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(0, 1.0)
        history.add_recovery_point(0, 2.0, kind=CheckpointKind.PSEUDO, origin=(1, 1))
        assert len(history.checkpoints(0, kinds=(CheckpointKind.REGULAR,))) == 1
        assert len(history.checkpoints(0, kinds=(CheckpointKind.PSEUDO,))) == 1
        assert len(history.recovery_points(0)) == 1

    def test_latest_row(self):
        history = HistoryDiagram(1)
        history.add_recovery_point(0, 1.0)
        history.add_recovery_point(0, 3.0)
        assert history.latest_row(0, 2.5)[CP_TIME] == 1.0
        assert history.latest_row(0, 3.0)[CP_TIME] == 3.0
        assert history.latest_row(0, 0.5)[CP_KIND] is CheckpointKind.INITIAL

    def test_latest_row_skips_foreign_pseudo(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(0, 1.0)
        history.add_recovery_point(0, 2.0, kind=CheckpointKind.PSEUDO, origin=(1, 1))
        assert history.latest_row(0, 3.0)[CP_TIME] == 1.0
        assert history.latest_row(0, 3.0, failed_process=0)[CP_TIME] == 1.0
        # When the failure is in the PRP's triggering process, the PRP is usable.
        assert history.latest_row(0, 3.0, failed_process=1)[CP_TIME] == 2.0

    def test_pseudo_row_is_the_earliest_prp_for_its_origin(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(1, 1.0)
        late = history.append_checkpoint(0, 2.0, CheckpointKind.PSEUDO, (1, 1))
        early = history.append_checkpoint(0, 1.0, CheckpointKind.PSEUDO, (1, 1))
        assert history.pseudo_row(0, (1, 1)) is early
        assert late is not early
        assert history.pseudo_row(0, (1, 2)) is None
        assert history.pseudo_row(1, (1, 1)) is None

    def test_checkpoint_rows_and_times_stay_parallel(self):
        history = HistoryDiagram(1)
        for t in (3.0, 1.0, 2.0):
            history.append_checkpoint(0, t, CheckpointKind.REGULAR)
        rows, times = history.checkpoint_rows(0)
        assert times == [0.0, 1.0, 2.0, 3.0]
        assert [row[CP_TIME] for row in rows] == times
        # Indices follow insertion order, not time order.
        assert [row[CP_INDEX] for row in rows] == [0, 2, 3, 1]

    def test_recovery_points_exclude_initial_and_pseudo(self):
        history = HistoryDiagram(2)
        rp = history.add_recovery_point(0, 1.0)
        history.add_recovery_point(0, 2.0, kind=CheckpointKind.PSEUDO,
                                   origin=(1, 1))
        assert history.recovery_points(0) == [rp]
        assert history.recovery_points(1) == []

    def test_add_recovery_point_validates(self):
        history = HistoryDiagram(1)
        with pytest.raises(ValueError):
            history.add_recovery_point(0, -1.0)
        with pytest.raises(ValueError):
            history.add_recovery_point(0, 1.0, kind=CheckpointKind.PSEUDO)


class TestInteractions:
    def test_interactions_between_open_window(self, simple_history):
        assert len(simple_history.interactions_between(0, 1, 1.0, 3.0)) == 1
        assert len(simple_history.interactions_between(0, 1, 2.0, 3.0)) == 0
        assert len(simple_history.interactions_between(0, 1, 2.0, 3.0, closed=True)) == 1

    def test_interactions_between_is_symmetric_in_window(self, simple_history):
        forward = simple_history.interactions_between(0, 1, 1.0, 3.0)
        backward = simple_history.interactions_between(0, 1, 3.0, 1.0)
        assert forward == backward

    def test_involving_uses_endpoint_of_that_process(self):
        history = HistoryDiagram(2)
        history.add_interaction(0, 1, 1.0, receive_time=2.0)
        assert history.involving(0, 0.0, 1.5) == [0]   # send at 1.0
        assert history.involving(1, 0.0, 1.5) == []    # receive at 2.0
        assert history.involving(1, 1.5, 2.5) == [0]
        history.kill_interactions([0])
        assert history.involving(1, 1.5, 2.5) == [0]
        assert history.involving(1, 1.5, 2.5, live_only=True) == []

    def test_involving_with_unsorted_receive_times(self):
        history = HistoryDiagram(3)
        history.add_interaction(0, 1, 1.0, receive_time=5.0)
        history.add_interaction(2, 1, 2.0, receive_time=2.5)
        assert not history.receive_sorted
        assert history.involving(1, 2.0, 3.0) == [1]
        assert history.involving(1, 4.0, 6.0) == [0]

    def test_out_of_order_interactions_are_kept_sorted(self):
        history = HistoryDiagram(2)
        history.add_interaction(0, 1, 3.0, receive_time=3.0)
        history.add_interaction(1, 0, 1.0, receive_time=1.0)
        send, recv, src, dst, dead = history.interaction_columns()
        assert send == [1.0, 3.0] and recv == [1.0, 3.0]
        assert (src, dst, dead) == ([1, 0], [0, 1], [False, False])
        history.validate()

    def test_killing_interactions_keeps_their_rows(self, simple_history):
        simple_history.kill_interactions([0])
        assert simple_history.interaction_columns()[4] == [True]
        assert len(simple_history.interactions) == 1
        view = simple_history.interaction(0)
        assert (view.source, view.target, view.time) == (0, 1, 2.0)


class TestMisc:
    def test_end_time_tracks_latest_event(self, simple_history):
        assert simple_history.end_time == 3.5

    def test_validate_passes_for_wellformed(self, simple_history, figure1_history):
        simple_history.validate()
        figure1_history.validate()

    def test_render_ascii_contains_processes_and_marks(self, simple_history):
        art = simple_history.render_ascii(width=40)
        assert "P1" in art and "P2" in art
        assert "o" in art and "x" in art

    def test_render_ascii_marks_pseudo_points(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(0, 1.0)
        history.add_recovery_point(1, 1.0, kind=CheckpointKind.PSEUDO,
                                   origin=(0, 1))
        lines = history.render_ascii(width=20).splitlines()
        assert len(lines) == 3
        assert "o" in lines[1] and "p" not in lines[1].split(" ", 1)[1]
        assert "p" in lines[2]

    def test_end_time_counts_receive_times(self):
        history = HistoryDiagram(2)
        history.add_recovery_point(0, 2.0)
        assert history.end_time == 2.0
        history.add_interaction(0, 1, 1.0, receive_time=4.0)
        assert history.end_time == 4.0

    def test_repr_mentions_counts(self, simple_history):
        assert "interactions=1" in repr(simple_history)
