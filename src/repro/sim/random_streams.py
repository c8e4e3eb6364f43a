"""Seeded random-number streams for reproducible simulations.

Each logical source of randomness (per-process recovery-point timers, per-pair
interaction timers, fault injection, …) gets its own independent child generator
spawned from a single root seed, so that changing the amount of randomness one
component consumes does not perturb the others — the standard variance-reduction
hygiene for discrete-event simulation studies.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RandomStreams"]

#: Variates pre-drawn per named stream by the buffered helpers below.  A
#: vectorised ``Generator.exponential(scale, size=k)`` (or ``random(size=k)``)
#: consumes the underlying bitstream exactly like ``k`` successive scalar
#: draws and returns the same values, so serving draws from a buffer changes
#: no results — it only removes the per-call numpy dispatch overhead.  Any
#: bitstream over-consumed at the end of a run is harmless because every
#: named stream is independent and is never read by anything else.
_BUFFER_SIZE = 64


def _stable_digest(name: str) -> int:
    """Deterministic 32-bit digest of a stream name.

    ``hash()`` is randomised per interpreter process (PYTHONHASHSEED), which would
    silently break cross-run reproducibility of seeded simulations; CRC32 is stable.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


@lru_cache(maxsize=4096)
def _pcg64_words(entropy, spawn_key: Tuple[int, ...]) -> np.ndarray:
    """The read-only words ``SeedSequence(entropy, spawn_key)`` seeds
    ``PCG64`` with.  A strategy sweep's common random numbers repeat most
    named streams across cells, so each is hashed once."""
    words = np.random.SeedSequence(entropy, spawn_key=spawn_key) \
        .generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` its precomputed seeding words."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 seeding words")
        return self._words


def _buffered(rng: np.random.Generator, sampler) -> Iterator[float]:
    """Endless variates of *rng*, drawn :data:`_BUFFER_SIZE` at a time."""
    # tolist() gives the exact Python floats; chain serves them without a
    # frame per draw and draws the next block when one runs dry.
    return chain.from_iterable(sampler(rng, _BUFFER_SIZE).tolist()
                               for _ in repeat(None))


class RandomStreams:
    """A family of named, independent random generators derived from one seed."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed_seq = np.random.SeedSequence(seed)
        self._root: Optional[np.random.Generator] = None
        self._streams: Dict[str, np.random.Generator] = {}
        # (name, law) -> (pinned law parameters, buffered variate iterator).
        self._sources: Dict[Tuple[str, str], Tuple[tuple, Iterator[float]]] = {}

    @property
    def root(self) -> np.random.Generator:
        """The root generator (use sparingly; prefer named streams)."""
        if self._root is None:
            self._root = np.random.default_rng(self._seed_seq)
        return self._root

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the named independent stream.

        The stream is derived deterministically from the root seed and the name, so
        the same name always yields the same sequence for a given root seed.
        """
        if name not in self._streams:
            # Derive a child seed from the name so stream identity is stable even
            # if creation order changes between runs.  The parent's own spawn key is
            # included so that spawned families stay independent of each other.
            entropy = self._seed_seq.entropy
            words = _pcg64_words(
                entropy if np.ndim(entropy) == 0 else tuple(entropy),
                tuple(self._seed_seq.spawn_key) + (_stable_digest(name),))
            self._streams[name] = np.random.Generator(
                np.random.PCG64(_SeedWords(words)))
        return self._streams[name]

    # ------------------------------------------------------------------ helpers
    def source(self, name: str, law: str, params: tuple,
               sampler: Callable[[np.random.Generator, int], np.ndarray]
               ) -> Iterator[float]:
        """The buffered iterator of one law's variates from the named stream.

        ``next()`` on it serves one variate.  The law's parameters are pinned
        at first use, and asking again with different ones raises rather than
        silently serving variates drawn under the old parameters.  Each
        (name, law) pair has its own buffer; buffers of one name refill from
        its generator in the order they run dry.
        """
        entry = self._sources.get((name, law))
        if entry is None:
            entry = (params, _buffered(self.stream(name), sampler))
            self._sources[name, law] = entry
        elif entry[0] != params:
            raise ValueError(
                f"stream {name!r} was buffered with {law} parameters "
                f"{entry[0]}, got {params}; buffered streams need constant "
                "parameters per name — use one stream name per source")
        return entry[1]

    def exponential_source(self, name: str, rate: float) -> Iterator[float]:
        """Buffered exponential variates with the given *rate* (see :meth:`source`)."""
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        scale = 1.0 / rate
        return self.source(name, "exponential", (scale,),
                           lambda rng, k: rng.exponential(scale, k))

    def exponential(self, name: str, rate: float) -> float:
        """One exponential variate with the given *rate* from the named stream."""
        return next(self.exponential_source(name, rate))

    def uniform_source(self, name: str) -> Iterator[float]:
        """Buffered U[0, 1) variates of the named stream (see :meth:`source`)."""
        return self.source(name, "uniform", (), lambda rng, k: rng.random(k))

    def weibull_source(self, name: str, shape: float,
                       scale: float) -> Iterator[float]:
        """Buffered Weibull(*shape*, *scale*) variates (see :meth:`source`).

        Each variate is ``scale · Generator.weibull(shape)``, identical bit
        for bit to the scalar numpy draw sequence.
        """
        if shape <= 0.0 or scale <= 0.0:
            raise ValueError("shape and scale must be positive")
        return self.source(name, "weibull", (float(shape), float(scale)),
                           lambda rng, k: rng.weibull(shape, k) * scale)

    def weibull(self, name: str, shape: float, scale: float) -> float:
        """One Weibull(*shape*, *scale*) variate from the named stream."""
        return next(self.weibull_source(name, shape, scale))

    def lognormal_source(self, name: str, mu: float,
                         sigma: float) -> Iterator[float]:
        """Buffered lognormal variates (log-mean *mu*, log-sd *sigma*)."""
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        return self.source(name, "lognormal", (float(mu), float(sigma)),
                           lambda rng, k: rng.lognormal(mu, sigma, k))

    def lognormal(self, name: str, mu: float, sigma: float) -> float:
        """One lognormal variate (log-mean *mu*, log-sd *sigma*), buffered."""
        return next(self.lognormal_source(name, mu, sigma))

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def choice(self, name: str, options: Sequence, p: Optional[Sequence[float]] = None):
        """Pick one element of *options* (optionally weighted)."""
        idx = int(self.stream(name).choice(len(options), p=p))
        return options[idx]

    def bernoulli(self, name: str, probability: float) -> bool:
        # The buffered uniforms do not depend on the probability, so it is
        # free to vary between calls.
        if not (0.0 <= probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        return next(self.uniform_source(name)) < probability

    def spawn(self, name: str) -> "RandomStreams":
        """Create an independent sub-family (e.g. one per replication)."""
        digest = _stable_digest(f"spawn::{name}")
        child = RandomStreams.__new__(RandomStreams)
        child._seed_seq = np.random.SeedSequence(entropy=self._seed_seq.entropy,
                                                 spawn_key=(digest, 1))
        child._root = None
        child._streams = {}
        child._sources = {}
        return child
