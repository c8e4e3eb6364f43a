"""Model-level Monte-Carlo simulation of the asynchronous recovery-block model.

The paper's Table 1 values were produced by "computer simulation" of the Section 2
model.  :class:`ModelSimulator` reproduces that experiment: it samples the competing
Poisson processes (recovery points at rates ``μ_i``, pairwise interactions at rates
``λ_ij``) directly, tracks the ``(x_1,…,x_n)`` state, and records

* the interval ``X`` between successive recovery lines, and
* the number of recovery points each process establishes during the interval.

Because it simulates exactly the stochastic model underlying the CTMC, its
estimates converge to the analytic phase-type results — this is the basis of the
``validation`` scenario (:mod:`repro.experiments.validation`).  The simulator
can also emit a full :class:`~repro.core.history.HistoryDiagram` for
cross-checking the history-level recovery-line detectors against the bit-level
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.history import HistoryDiagram
from repro.core.parameters import SystemParameters

__all__ = ["SimulatedIntervals", "ModelSimulator", "RenewalModelSimulator",
           "concatenate_intervals"]

#: Events drawn from the generator per batch.  One batch covers a few hundred
#: intervals of a typical Table 1 case, so the per-event cost is dominated by
#: the (cheap) Python state update rather than by RNG calls.
DEFAULT_BATCH_SIZE = 8_192


@dataclass(frozen=True)
class SimulatedIntervals:
    """Sampled inter-recovery-line intervals and recovery-point counts.

    ``rp_counts`` uses the *all* counting convention (the recovery point that
    completes the next line is included); ``completing_process[r]`` identifies which
    process's RP completed interval ``r``, so the *interior* convention is simply
    ``rp_counts`` with one subtracted from that process's column.
    """

    lengths: np.ndarray
    rp_counts: np.ndarray
    completing_process: np.ndarray

    def __post_init__(self) -> None:
        if self.lengths.ndim != 1 or self.rp_counts.ndim != 2:
            raise ValueError("malformed simulation output")
        if self.lengths.shape[0] != self.rp_counts.shape[0]:
            raise ValueError("lengths and rp_counts disagree on sample count")
        if self.completing_process.shape != self.lengths.shape:
            raise ValueError("completing_process must align with lengths")

    @property
    def n_samples(self) -> int:
        return int(self.lengths.shape[0])

    @property
    def n_processes(self) -> int:
        return int(self.rp_counts.shape[1])

    def mean_interval(self) -> float:
        """Estimate of ``E[X]``."""
        return float(self.lengths.mean())

    def interval_stderr(self) -> float:
        if self.n_samples < 2:
            return 0.0
        return float(self.lengths.std(ddof=1) / np.sqrt(self.n_samples))

    def mean_rp_counts(self, counting: str = "interior") -> np.ndarray:
        """Estimate of ``E[L_i]`` under the requested counting convention."""
        if counting not in ("interior", "all"):
            raise ValueError("counting must be 'interior' or 'all'")
        counts = self.rp_counts.astype(float)
        if counting == "interior":
            counts = counts.copy()
            rows = np.arange(self.n_samples)
            counts[rows, self.completing_process] -= 1.0
        return counts.mean(axis=0)

    def completion_frequencies(self) -> np.ndarray:
        """Empirical estimate of ``q_i`` (who completes the recovery line)."""
        freq = np.bincount(self.completing_process, minlength=self.n_processes)
        return freq / max(self.n_samples, 1)


def concatenate_intervals(parts: Sequence["SimulatedIntervals"]
                          ) -> "SimulatedIntervals":
    """Merge per-shard sample sets into one, preserving shard order.

    The experiment runner shards a Monte-Carlo budget across workers and merges
    the shard outputs with this helper; because the merge respects the shard
    order, the combined sample set is independent of which backend produced it.
    """
    if not parts:
        raise ValueError("need at least one shard to concatenate")
    n_processes = parts[0].n_processes
    if any(part.n_processes != n_processes for part in parts):
        raise ValueError("shards disagree on the number of processes")
    if len(parts) == 1:
        return parts[0]
    return SimulatedIntervals(
        lengths=np.concatenate([part.lengths for part in parts]),
        rp_counts=np.concatenate([part.rp_counts for part in parts]),
        completing_process=np.concatenate([part.completing_process
                                           for part in parts]),
    )


class ModelSimulator:
    """Monte-Carlo sampler of the Section 2 model.

    The sampler exploits the structure of the underlying Markov jump chain: the
    holding times are i.i.d. ``Exp(Λ)`` with ``Λ`` the total event rate, and the
    event identities are i.i.d. categorical draws with probabilities
    ``rate/Λ`` — the competing exponentials of the model.  Both streams are
    therefore drawn from numpy in large batches instead of one generator call
    per event, and the per-event state update is a pair of integer bitmask
    operations; this is an order of magnitude faster than the event-at-a-time
    reference implementation (kept as :meth:`sample_intervals_legacy`) while
    sampling the exact same process law.

    Parameters
    ----------
    params:
        System parameters (``μ``, ``λ``).
    seed:
        Seed (or a pre-spawned :class:`numpy.random.SeedSequence`) for the
        dedicated :class:`numpy.random.Generator`; runs with the same seed are
        bit-for-bit reproducible.
    batch_size:
        Events drawn per numpy batch.
    """

    def __init__(self, params: SystemParameters,
                 seed: Union[int, np.random.SeedSequence, None] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.batch_size = int(batch_size)
        # Pre-compute the event alphabet: ("rp", i) and ("interaction", (i, j)).
        self._event_rates: List[float] = []
        self._events: List[Tuple[str, Tuple[int, ...]]] = []
        for i in range(params.n):
            self._events.append(("rp", (i,)))
            self._event_rates.append(float(params.mu[i]))
        for i in range(params.n):
            for j in range(i + 1, params.n):
                rate = params.pair_rate(i, j)
                if rate > 0.0:
                    self._events.append(("interaction", (i, j)))
                    self._event_rates.append(rate)
        self._rates = np.asarray(self._event_rates, dtype=float)
        self._total_rate = float(self._rates.sum())
        if self._total_rate <= 0.0:
            raise ValueError("the system has no events (all rates zero)")
        self._probs = self._rates / self._total_rate
        # Per-event lookup tables for the batched fast path, as plain Python
        # lists (scalar indexing of lists is ~3x faster than numpy scalars).
        # Applying an event to the bit-vector state is
        #   mask = (mask & and_mask[e]) | or_mask[e]
        # (an RP sets the process bit, an interaction clears both bits).
        full = (1 << params.n) - 1
        self._full_mask = full
        self._or_masks: List[int] = []
        self._and_masks: List[int] = []
        self._rp_proc: List[int] = []       # process id for RPs, -1 otherwise
        self._pair: List[Tuple[int, int]] = []
        for kind, who in self._events:
            if kind == "rp":
                (i,) = who
                self._or_masks.append(1 << i)
                self._and_masks.append(full)
                self._rp_proc.append(i)
                self._pair.append((i, i))
            else:
                i, j = who
                self._or_masks.append(0)
                self._and_masks.append(full & ~((1 << i) | (1 << j)))
                self._rp_proc.append(-1)
                self._pair.append((i, j))
        self._cumprobs = np.cumsum(self._probs)
        self._cumprobs[-1] = 1.0

    # ------------------------------------------------------------------ sampling
    def _next_event(self) -> Tuple[float, str, Tuple[int, ...]]:
        """Sample the next event: (holding time, kind, participants).

        Event-at-a-time reference path; the batched sampler below draws the
        same two streams (exponential holding times, categorical identities)
        in numpy blocks instead.
        """
        dt = self.rng.exponential(1.0 / self._total_rate)
        idx = int(self.rng.choice(len(self._events), p=self._probs))
        kind, who = self._events[idx]
        return dt, kind, who

    def _draw_batch(self) -> Tuple[List[float], List[int]]:
        """Draw one numpy batch of (holding times, event indices)."""
        size = self.batch_size
        dts = self.rng.exponential(1.0 / self._total_rate, size=size)
        idxs = np.searchsorted(self._cumprobs, self.rng.random(size),
                               side="right")
        return dts.tolist(), idxs.tolist()

    def sample_intervals(self, n_intervals: int,
                         max_events_per_interval: int = 10_000_000
                         ) -> SimulatedIntervals:
        """Sample *n_intervals* successive inter-recovery-line intervals."""
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        n = self.params.n
        lengths = np.empty(n_intervals)
        counts = np.zeros((n_intervals, n), dtype=np.int64)
        completing = np.empty(n_intervals, dtype=np.int64)

        full = self._full_mask
        or_masks = self._or_masks
        and_masks = self._and_masks
        rp_proc = self._rp_proc
        dts: List[float] = []
        idxs: List[int] = []
        ptr = buffered = 0

        for r in range(n_intervals):
            mask = full                 # entry state: all last actions are RPs
            elapsed = 0.0
            events = 0
            row = [0] * n
            while True:
                if ptr == buffered:
                    dts, idxs = self._draw_batch()
                    ptr, buffered = 0, len(dts)
                dt = dts[ptr]
                idx = idxs[ptr]
                ptr += 1
                events += 1
                if events > max_events_per_interval:
                    raise RuntimeError("interval did not close; check the rates")
                elapsed += dt
                i = rp_proc[idx]
                if i >= 0:
                    row[i] += 1
                    mask |= or_masks[idx]
                    if mask == full:
                        lengths[r] = elapsed
                        completing[r] = i
                        break
                else:
                    mask &= and_masks[idx]
            counts[r] = row
        return SimulatedIntervals(lengths=lengths, rp_counts=counts,
                                  completing_process=completing)

    def sample_intervals_legacy(self, n_intervals: int,
                                max_events_per_interval: int = 10_000_000
                                ) -> SimulatedIntervals:
        """Event-at-a-time reference implementation of :meth:`sample_intervals`.

        Kept as the cross-check and benchmark baseline for the batched fast
        path: both sample the identical process law, but this one pays two
        generator calls per event.
        """
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        n = self.params.n
        lengths = np.empty(n_intervals)
        counts = np.zeros((n_intervals, n), dtype=np.int64)
        completing = np.empty(n_intervals, dtype=np.int64)

        for r in range(n_intervals):
            bits = [True] * n           # entry state: all last actions are RPs
            elapsed = 0.0
            events = 0
            while True:
                events += 1
                if events > max_events_per_interval:
                    raise RuntimeError("interval did not close; check the rates")
                dt, kind, who = self._next_event()
                elapsed += dt
                if kind == "rp":
                    (i,) = who
                    counts[r, i] += 1
                    bits[i] = True
                    if all(bits):
                        lengths[r] = elapsed
                        completing[r] = i
                        break
                else:
                    i, j = who
                    bits[i] = False
                    bits[j] = False
        return SimulatedIntervals(lengths=lengths, rp_counts=counts,
                                  completing_process=completing)

    # ------------------------------------------------------------------ histories
    def generate_history(self, duration: float) -> HistoryDiagram:
        """Generate a full history diagram of length *duration*.

        Recovery points and interactions are drawn from the same competing Poisson
        processes; the result feeds the history-level recovery-line detectors and
        the rollback-propagation analysis.
        """
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        history = HistoryDiagram(self.params.n)
        rp_proc = self._rp_proc
        pair = self._pair
        t = 0.0
        dts: List[float] = []
        idxs: List[int] = []
        ptr = buffered = 0
        while True:
            if ptr == buffered:
                dts, idxs = self._draw_batch()
                ptr, buffered = 0, len(dts)
            t += dts[ptr]
            idx = idxs[ptr]
            ptr += 1
            if t > duration:
                break
            i = rp_proc[idx]
            if i >= 0:
                history.add_recovery_point(i, t)
            else:
                i, j = pair[idx]
                # Interactions of the analytic model are symmetric and
                # instantaneous; direction is irrelevant, pick the lower id as the
                # sender for determinism.
                history.add_interaction(i, j, t, receive_time=t)
        return history

    def estimate_mean_interval(self, n_intervals: int) -> float:
        """Convenience shortcut for ``E[X]`` estimation."""
        return self.sample_intervals(n_intervals).mean_interval()


class RenewalModelSimulator:
    """Monte-Carlo sampler of the model under a *non-exponential* failure law.

    The exponential model is a race of memoryless clocks, which is what lets
    :class:`ModelSimulator` draw holding times and event identities as two
    i.i.d. streams.  Under a ``weibull``/``lognormal`` ``failure_law`` the
    per-process recovery-point interarrivals become a renewal process of that
    law (scaled to keep the mean at ``1/μ_i``) and the race structure is lost,
    so this sampler keeps one *absolute* next-event time per source — ``n``
    renewal timers plus one Poisson timer per interacting pair — and fires the
    earliest.  Every renewal timer is redrawn when a recovery line forms
    (process order ``0..n−1``), which makes successive intervals i.i.d. — the
    property the phase-type expanded chain of :mod:`repro.markov.phfit`
    relies on to stay exact given the fitted law.  Interaction timers are
    Poisson and simply keep running.

    This is the ground truth the analytic phase-type approximation is gated
    against by the conformance suite; it samples the declared law *exactly*.
    """

    def __init__(self, params: SystemParameters,
                 seed: Union[int, np.random.SeedSequence, None] = None,
                 failure_law: str = "weibull",
                 failure_shape: float = 1.0) -> None:
        if failure_law not in ("exponential", "weibull", "lognormal"):
            raise ValueError(f"unknown failure law {failure_law!r}")
        if failure_law != "exponential" and not failure_shape > 0.0:
            raise ValueError("failure_shape must be positive")
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.failure_law = failure_law
        self.failure_shape = float(failure_shape)
        means = 1.0 / np.asarray(params.mu, dtype=float)
        self._means = means.tolist()
        if failure_law == "weibull":
            from scipy.special import gamma as _gamma_fn
            self._scales = (means / _gamma_fn(1.0 + 1.0 / self.failure_shape)
                            ).tolist()
        elif failure_law == "lognormal":
            sigma = self.failure_shape
            self._log_means = (np.log(means) - 0.5 * sigma * sigma).tolist()
        self._pairs: List[Tuple[int, int, float]] = [
            (i, j, params.pair_rate(i, j)) for i, j in params.pairs]

    def _draw_interarrival(self, i: int) -> float:
        if self.failure_law == "weibull":
            return float(self.rng.weibull(self.failure_shape)) * self._scales[i]
        if self.failure_law == "lognormal":
            return float(self.rng.lognormal(self._log_means[i],
                                            self.failure_shape))
        return float(self.rng.exponential(self._means[i]))

    def sample_intervals(self, n_intervals: int,
                         max_events_per_interval: int = 10_000_000
                         ) -> SimulatedIntervals:
        """Sample *n_intervals* successive inter-recovery-line intervals."""
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        n = self.params.n
        lengths = np.empty(n_intervals)
        counts = np.zeros((n_intervals, n), dtype=np.int64)
        completing = np.empty(n_intervals, dtype=np.int64)

        full = (1 << n) - 1
        t = 0.0
        # Absolute next-event times; the canonical draw order (all RP timers
        # in process order at every line formation, then pair timers in pair
        # order once at the start; the fired source redrawn after each event)
        # is part of the determinism contract pinned by the golden snapshots.
        next_rp = [t + self._draw_interarrival(i) for i in range(n)]
        next_pair = [t + self.rng.exponential(1.0 / rate)
                     for _i, _j, rate in self._pairs]
        for r in range(n_intervals):
            mask = full                 # entry state: all last actions are RPs
            start = t
            events = 0
            row = [0] * n
            while True:
                events += 1
                if events > max_events_per_interval:
                    raise RuntimeError("interval did not close; check the rates")
                source = min(range(n + len(next_pair)),
                             key=lambda s: next_rp[s] if s < n
                             else next_pair[s - n])
                if source < n:
                    i = source
                    t = next_rp[i]
                    row[i] += 1
                    mask |= 1 << i
                    if mask == full:
                        lengths[r] = t - start
                        completing[r] = i
                        counts[r] = row
                        # Line formed: every renewal timer resets.
                        for p in range(n):
                            next_rp[p] = t + self._draw_interarrival(p)
                        break
                    next_rp[i] = t + self._draw_interarrival(i)
                else:
                    k = source - n
                    i, j, rate = self._pairs[k]
                    t = next_pair[k]
                    mask &= full & ~((1 << i) | (1 << j))
                    next_pair[k] = t + self.rng.exponential(1.0 / rate)
        return SimulatedIntervals(lengths=lengths, rp_counts=counts,
                                  completing_process=completing)

    def generate_history(self, duration: float) -> HistoryDiagram:
        """Generate a history diagram of length *duration* under the law.

        Same renewal semantics as :meth:`sample_intervals` (timers reset when
        a recovery line forms); interactions are emitted with the lower id as
        the sender, mirroring :meth:`ModelSimulator.generate_history`.
        """
        if duration <= 0.0:
            raise ValueError("duration must be positive")
        n = self.params.n
        history = HistoryDiagram(n)
        full = (1 << n) - 1
        mask = full
        t = 0.0
        next_rp = [t + self._draw_interarrival(i) for i in range(n)]
        next_pair = [t + self.rng.exponential(1.0 / rate)
                     for _i, _j, rate in self._pairs]
        while True:
            source = min(range(n + len(next_pair)),
                         key=lambda s: next_rp[s] if s < n
                         else next_pair[s - n])
            when = next_rp[source] if source < n else next_pair[source - n]
            if when > duration:
                return history
            t = when
            if source < n:
                i = source
                history.add_recovery_point(i, t)
                mask |= 1 << i
                if mask == full:
                    for p in range(n):
                        next_rp[p] = t + self._draw_interarrival(p)
                else:
                    next_rp[i] = t + self._draw_interarrival(i)
            else:
                k = source - n
                i, j, rate = self._pairs[k]
                history.add_interaction(i, j, t, receive_time=t)
                mask &= full & ~((1 << i) | (1 << j))
                next_pair[k] = t + self.rng.exponential(1.0 / rate)

    def estimate_mean_interval(self, n_intervals: int) -> float:
        """Convenience shortcut for ``E[X]`` estimation."""
        return self.sample_intervals(n_intervals).mean_interval()
