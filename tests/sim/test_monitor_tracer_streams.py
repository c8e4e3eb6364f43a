"""Unit tests for monitors, tracers and random streams."""

import numpy as np
import pytest

from repro.core.types import CheckpointKind, EventKind
from repro.sim.monitor import Counter, Monitor, Tally, TimeWeightedStat
from repro.sim.random_streams import RandomStreams
from repro.sim.tracer import Tracer


class TestCounter:
    def test_increment(self):
        counter = Counter("x")
        counter.increment()
        counter.increment(3)
        assert counter.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestTally:
    def test_moments(self):
        tally = Tally("t")
        for value in (1.0, 2.0, 3.0):
            tally.observe(value)
        assert tally.count == 3
        assert tally.mean == pytest.approx(2.0)
        assert tally.maximum == 3.0

    def test_samples_only_when_requested(self):
        plain = Tally("plain")
        plain.observe(1.0)
        with pytest.raises(RuntimeError):
            _ = plain.samples
        keeping = Tally("keep", keep_samples=True)
        keeping.observe(1.0)
        assert keeping.samples == [1.0]


class TestTimeWeightedStat:
    def test_time_average_of_step_function(self):
        level = TimeWeightedStat("load", initial=0.0)
        level.update(2.0, 4.0)     # 0 for [0,2)
        level.update(6.0, 0.0)     # 4 for [2,6)
        assert level.time_average(8.0) == pytest.approx((0 * 2 + 4 * 4 + 0 * 2) / 8)
        assert level.maximum == 4.0

    def test_add_delta(self):
        level = TimeWeightedStat("load", initial=1.0)
        level.add(1.0, +2.0)
        assert level.current == 3.0

    def test_time_must_not_regress(self):
        level = TimeWeightedStat()
        level.update(2.0, 1.0)
        with pytest.raises(ValueError):
            level.update(1.0, 0.0)


class TestMonitor:
    def test_named_instruments_are_cached(self):
        monitor = Monitor()
        assert monitor.counter("a") is monitor.counter("a")
        assert monitor.tally("b") is monitor.tally("b")
        assert monitor.level("c") is monitor.level("c")

    def test_report_flattens_everything(self):
        monitor = Monitor()
        monitor.counter("events").increment(2)
        monitor.tally("distance").observe(1.5)
        monitor.level("states").update(1.0, 3.0)
        report = monitor.report(now=2.0)
        assert report["count.events"] == 2.0
        assert report["mean.distance"] == 1.5
        assert "avg.states" in report


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(7).stream("x").random(5)
        b = RandomStreams(7).stream("x").random(5)
        assert np.allclose(a, b)

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        assert not np.allclose(streams.stream("x").random(5),
                               streams.stream("y").random(5))

    def test_consuming_one_stream_does_not_shift_another(self):
        reference = RandomStreams(3).stream("b").random(4)
        streams = RandomStreams(3)
        streams.stream("a").random(1000)
        assert np.allclose(streams.stream("b").random(4), reference)

    def test_exponential_mean(self):
        streams = RandomStreams(11)
        samples = [streams.exponential("e", 4.0) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(0.25, rel=0.1)

    def test_exponential_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            RandomStreams(1).exponential("e", 0.0)

    def test_bernoulli_probability(self):
        streams = RandomStreams(5)
        hits = sum(streams.bernoulli("coin", 0.25) for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.25, abs=0.03)

    def test_choice_and_uniform(self):
        streams = RandomStreams(9)
        assert streams.choice("c", ["a", "b"]) in ("a", "b")
        assert 0.0 <= streams.uniform("u") <= 1.0

    def test_spawn_produces_independent_family(self):
        parent = RandomStreams(13)
        child = parent.spawn("replica-1")
        assert not np.allclose(parent.stream("x").random(3),
                               child.stream("x").random(3))

    @pytest.mark.parametrize("family", ["seeded", "spawned", "list-entropy"])
    def test_stream_is_the_seed_sequence_child_bit_for_bit(self, family):
        """Named streams are seeded from memoised words; each must draw
        exactly what a generator on the child ``SeedSequence`` draws."""
        import zlib
        streams = RandomStreams(2**70 + 3)
        if family == "spawned":
            streams = streams.spawn("rep-4")
        elif family == "list-entropy":
            streams._seed_seq = np.random.SeedSequence([1, 2, 3])
        seq = streams._seed_seq
        for name in ("rp:0", "fault", "rp:0"):
            child = np.random.SeedSequence(
                entropy=seq.entropy,
                spawn_key=tuple(seq.spawn_key) + (zlib.crc32(name.encode()),))
            fresh = RandomStreams.__new__(RandomStreams)
            fresh.__dict__.update(streams.__dict__, _streams={})
            drawn = fresh.stream(name).random(6)
            assert drawn.tobytes() == \
                np.random.default_rng(child).random(6).tobytes()


class TestTracer:
    def test_checkpoints_land_in_history_and_log(self):
        tracer = Tracer(2)
        rp = tracer.record_recovery_point(0, 1.0)
        prp = tracer.record_pseudo_recovery_point(1, 1.1, origin=(0, rp.index))
        assert tracer.history.checkpoint_count(0, CheckpointKind.REGULAR) == 1
        assert prp.origin == (0, rp.index)
        assert tracer.recovery_point_count(0) == 1
        assert tracer.log.count(EventKind.PSEUDO_RECOVERY_POINT) == 1

    def test_interactions_recorded_once(self):
        tracer = Tracer(2)
        tracer.record_interaction(0, 1, 2.0)
        assert tracer.interaction_count() == 1
        assert len(tracer.history.interactions) == 1

    def test_rollback_and_error_events(self):
        tracer = Tracer(2)
        tracer.record_error(0, 1.0)
        tracer.record_rollback(0, 2.0, restart_time=1.0, cause=0)
        assert tracer.rollback_count() == 1
        rollback = tracer.log.filter(kind=EventKind.ROLLBACK)[0]
        assert rollback.data["distance"] == pytest.approx(1.0)

    def test_sync_events_and_summary(self):
        tracer = Tracer(3)
        tracer.record_sync_request(0, 1.0)
        tracer.record_sync_commit(0, 1.5)
        tracer.record_recovery_line(2.0, (0, 1, 2))
        summary = tracer.summary()
        assert summary["sync_request"] == 1
        assert summary["recovery_line"] == 1
