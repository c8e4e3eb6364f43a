"""Unit tests for the named random streams."""

import numpy as np
import pytest

from repro.sim.random_streams import RandomStreams


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
