"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import SimulationEngine


class TestEngineBasics:
    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_callbacks_fire_in_time_order(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(2.0, lambda: seen.append("late"))
        engine.schedule(1.0, lambda: seen.append("early"))
        engine.drain()
        assert seen == ["early", "late"]
        assert engine.now == 2.0

    def test_ties_fire_in_insertion_order(self):
        engine = SimulationEngine()
        seen = []
        for tag in ("a", "b", "c"):
            engine.schedule(1.0, seen.append, tag)
        engine.drain()
        assert seen == ["a", "b", "c"]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule(-0.1, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_at(-1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(5.0, lambda: seen.append(5))
        engine.run(until=2.0)
        assert seen == [1]
        assert engine.now == 2.0
        assert engine.pending_events == 1

    def test_processed_events_counter(self):
        engine = SimulationEngine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.drain()
        assert engine.processed_events == 5

    def test_max_events_limit(self):
        engine = SimulationEngine()
        for _ in range(10):
            engine.schedule(1.0, lambda: None)
        engine.run(max_events=3)
        assert engine.processed_events == 3
