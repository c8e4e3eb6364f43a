"""Unit tests for workload specs, generators and trace replay."""

import numpy as np
import pytest

from repro.core.rollback import propagate_rollback
from repro.core.types import CheckpointKind
from repro.workloads.generators import (
    FIGURE6_CASES,
    TABLE1_CASES,
    homogeneous_workload,
    paper_figure6_case,
    paper_table1_case,
    pipeline_workload,
    realtime_control_workload,
)
from repro.workloads.spec import FaultModel, WorkloadSpec
from repro.workloads.trace import TraceEvent, TraceWorkload, figure1_trace, history_from_trace


class TestFaultModel:
    def test_defaults_disabled(self):
        assert not FaultModel().enabled

    def test_enabled_when_rate_positive(self):
        assert FaultModel(error_rate=0.1).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(error_rate=-1.0)
        with pytest.raises(ValueError):
            FaultModel(external_detection_probability=1.5)


class TestWorkloadSpec:
    def test_defaults_and_helpers(self, params_case1):
        spec = WorkloadSpec(params=params_case1, work_per_process=10.0)
        assert spec.n_processes == 3
        assert spec.ideal_completion_time() == 10.0
        assert np.allclose(spec.expected_checkpoints_per_process(), 10.0)

    def test_with_faults_and_with_work_copies(self, params_case1):
        spec = WorkloadSpec(params=params_case1)
        modified = spec.with_faults(0.5).with_work(5.0).with_checkpoint_cost(0.1)
        assert modified.faults.error_rate == 0.5
        assert modified.work_per_process == 5.0
        assert modified.checkpoint_cost == 0.1
        assert spec.faults.error_rate == 0.0   # the original is untouched

    def test_validation(self, params_case1):
        with pytest.raises(ValueError):
            WorkloadSpec(params=params_case1, work_per_process=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(params=params_case1, checkpoint_cost=-0.1)


class TestPaperCases:
    def test_table1_case_parameters(self):
        params = paper_table1_case(2)
        assert np.allclose(params.mu, (1.5, 1.0, 0.5))
        assert params.pair_rate(0, 1) == 1.0

    def test_all_table1_cases_have_constant_rho(self):
        rhos = [paper_table1_case(c).rho for c in range(1, len(TABLE1_CASES) + 1)]
        assert np.allclose(rhos, rhos[0])

    def test_figure6_case_parameters(self):
        params = paper_figure6_case(3)
        assert np.allclose(params.mu, (0.6, 0.45, 0.45))
        assert params.pair_rate(1, 2) == 0.75

    def test_case_index_validation(self):
        with pytest.raises(ValueError):
            paper_table1_case(0)
        with pytest.raises(ValueError):
            paper_figure6_case(9)


class TestScenarioWorkloads:
    def test_homogeneous_workload_shape(self):
        spec = homogeneous_workload(n=4, mu=2.0, lam=0.5, work=30.0)
        assert spec.n_processes == 4
        assert spec.params.is_symmetric()
        assert spec.work_per_process == 30.0

    def test_pipeline_workload_topology(self):
        spec = pipeline_workload(n=4)
        assert spec.params.pair_rate(0, 1) > 0.0
        assert spec.params.pair_rate(0, 3) == 0.0
        assert spec.block_spec.depth == 2

    def test_realtime_workload_has_alternates_and_high_rate(self):
        spec = realtime_control_workload(n=3, cycle_rate=4.0, deadline=1.0)
        assert np.allclose(spec.params.mu, 4.0)
        assert spec.block_spec.depth == 3
        assert spec.faults.external_detection_probability < 1.0


class TestTraces:
    def test_trace_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(time=1.0, kind="msg", process=0)          # missing peer
        with pytest.raises(ValueError):
            TraceEvent(time=1.0, kind="prp", process=0)          # missing origin
        with pytest.raises(ValueError):
            TraceEvent(time=1.0, kind="wat", process=0)

    def test_workload_sorts_events_and_checks_ranges(self):
        events = (TraceEvent(time=2.0, kind="rp", process=0),
                  TraceEvent(time=1.0, kind="rp", process=1))
        trace = TraceWorkload(name="t", n_processes=2, events=events)
        assert trace.events[0].time == 1.0
        assert trace.duration == 2.0
        with pytest.raises(ValueError):
            TraceWorkload(name="bad", n_processes=1, events=events)

    def test_history_from_trace_roundtrip(self):
        events = [TraceEvent(time=1.0, kind="rp", process=0),
                  TraceEvent(time=1.5, kind="msg", process=0, peer=1),
                  TraceEvent(time=2.0, kind="prp", process=1, origin=(0, 1))]
        history = history_from_trace(2, events)
        assert len(history.checkpoints(0, kinds=(CheckpointKind.REGULAR,))) == 1
        assert len(history.checkpoints(1, kinds=(CheckpointKind.PSEUDO,))) == 1
        assert len(history.interactions) == 1

    def test_figure1_trace_reproduces_paper_rollback(self):
        history = figure1_trace().to_history()
        result = propagate_rollback(history, failed_process=0, failure_time=6.2)
        assert set(result.affected) == {0, 1, 2}
        assert not result.domino
        # The restart layer is the early recovery line around t = 2.
        assert max(rp.time for rp in result.restart_points.values()) <= 2.1
