"""Execution backends, where replication tasks run, and the execution context.

A backend exposes one operation, :meth:`ExecutionBackend.map`, with the same
contract as the built-in ``map``: apply a picklable top-level function to a
sequence of picklable tasks and return the results *in task order*.  Because
every task carries its own pre-spawned seed and ordering is preserved, a
scenario produces bit-identical results on every backend.

``SerialBackend`` runs tasks inline; ``ProcessPoolBackend`` fans them out over
one :class:`concurrent.futures.ProcessPoolExecutor` kept for the backend's
life.  Whoever creates a backend owns it and calls ``close()``.

Determinism contract
--------------------
All randomness a scenario consumes is derived from one root
:class:`numpy.random.SeedSequence` held by the :class:`ExecutionContext`.
Per-replication (or per-shard) child sequences are spawned *in the driver
process, in a fixed order* (:meth:`ExecutionContext.spawn_seeds`), attached to
the task payloads, and only then handed to the backend.  Workers never touch
the root sequence, and backends return results in task order — so for a fixed
seed the assembled :class:`~repro.experiments.common.ExperimentResult` is
bit-for-bit identical whether the tasks ran serially or across a process pool,
with any worker count.

Sharding follows the same rule: a Monte-Carlo budget of ``N`` replications is
split into fixed-size shards (:func:`shard_counts`) whose sizes depend only on
``N`` — never on the backend or worker count.
"""

from __future__ import annotations

import abc
import os
import signal
import threading
from typing import (TYPE_CHECKING, Callable, Iterable, List, Optional,
                    Sequence, TypeVar, Union)

if TYPE_CHECKING:  # multiprocessing loads with the first pool
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np  # loads when the first seed is spawned

__all__ = ["DEFAULT_SHARD_SIZE", "ExecutionBackend", "ExecutionContext",
           "ProcessPoolBackend", "SerialBackend", "make_backend",
           "seed_to_int", "shard_counts"]

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of independent replication tasks."""

    #: CLI identifier (``--backend <name>``).
    name: str = "abstract"

    @abc.abstractmethod
    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        """Apply *func* to every task, returning results in task order."""

    def describe(self) -> str:
        return self.name

    def close(self) -> None:
        """Release what the backend holds; it stays usable."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _ignore_sigint() -> None:
    """Worker initializer: a terminal Ctrl-C is for the parent to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class SerialBackend(ExecutionBackend):
    """Run every task in the driver process, one after another."""

    name = "serial"

    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        return [func(task) for task in tasks]


class ProcessPoolBackend(ExecutionBackend):
    """Shard tasks across worker processes via :mod:`concurrent.futures`.

    Task functions and task payloads must be picklable (top-level functions and
    plain dataclasses — which is how the built-in scenarios express their
    shards).  Results come back in submission order, so output is bit-identical
    to :class:`SerialBackend` for the same task list.

    The first map with more than one task starts the pool; later maps reuse
    it.  A worker that dies fails only its map: the broken pool is dropped
    and the next map starts a fresh one.  :meth:`close` shuts it down.

    Parameters
    ----------
    workers:
        Worker-process count; ``None`` uses ``os.cpu_count()``.  A map hands
        each worker ``ceil(len(tasks) / (4 * workers))`` tasks per round-trip
        to amortise IPC without starving the pool.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        # Maps may run from several threads (the service flushes off-loop).
        self._lock = threading.Lock()

    def _pool_size(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)

    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        tasks = list(tasks)
        workers = min(self._pool_size(), len(tasks))
        if workers <= 1:
            # Nothing to fan out; skip the pool (and its pickling round-trip).
            return [func(task) for task in tasks]
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        chunksize = -(-len(tasks) // (4 * workers))
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._pool_size(), initializer=_ignore_sigint)
            pool = self._pool
        try:
            return list(pool.map(func, tasks, chunksize=chunksize))
        except BrokenProcessPool:
            with self._lock:
                if self._pool is pool:
                    self._pool = None
            pool.shutdown(wait=False)
            raise

    def close(self) -> None:
        """Shut the worker pool down (a later map builds a new one)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def describe(self) -> str:
        return f"process(workers={self._pool_size()})"


def make_backend(backend: Union[str, ExecutionBackend, None] = None,
                 workers: Optional[int] = None) -> ExecutionBackend:
    """Coerce a CLI-ish backend designation into an :class:`ExecutionBackend`.

    ``None`` and ``"serial"`` give :class:`SerialBackend`; ``"process"`` (or a
    *workers* count with no backend name) gives :class:`ProcessPoolBackend`.
    An already-constructed backend passes through (``workers`` must then be
    ``None`` — the instance owns its configuration).
    """
    if isinstance(backend, ExecutionBackend):
        if workers is not None:
            raise ValueError("pass workers to the backend constructor, not both")
        return backend
    if backend is None:
        return ProcessPoolBackend(workers=workers) if workers is not None \
            else SerialBackend()
    if backend == SerialBackend.name:
        if workers is not None:
            raise ValueError("the serial backend has no workers")
        return SerialBackend()
    if backend == ProcessPoolBackend.name:
        return ProcessPoolBackend(workers=workers)
    raise ValueError(f"unknown backend {backend!r}; expected "
                     f"'{SerialBackend.name}' or '{ProcessPoolBackend.name}'")


#: Replications per shard.  Fixed (backend- and worker-independent) so that the
#: shard layout — and therefore the seed stream and the results — depends only
#: on the total budget.  Small enough to load ~10 workers on the default
#: Table 1 budget, large enough that per-task overhead stays negligible.
DEFAULT_SHARD_SIZE = 2_000


def shard_counts(total: int, shard_size: int = DEFAULT_SHARD_SIZE) -> List[int]:
    """Split *total* replications into fixed-size shards (last one ragged)."""
    if total < 1:
        raise ValueError("need at least one replication")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    full, rest = divmod(total, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def seed_to_int(seq: np.random.SeedSequence) -> int:
    """Deterministic 64-bit integer seed from a :class:`SeedSequence`.

    For legacy components whose API takes an ``int`` seed (the recovery-scheme
    runtimes, :class:`~repro.sim.random_streams.RandomStreams`).
    """
    import numpy as np
    lo, hi = seq.generate_state(2, dtype=np.uint32)
    return (int(hi) << 32) | int(lo)


class ExecutionContext:
    """What the runner injects into a scenario function.

    Carries the execution backend, the requested replication budget and the
    root seed sequence.  Scenario code expresses Monte-Carlo work as *tasks*
    (picklable payloads, each holding a spawned child seed) and runs them with
    :meth:`map`; everything else — analytic computation, result assembly — runs
    in the driver.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 seed: Optional[int] = None, reps: Optional[int] = None) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.seed = seed
        self.reps = reps
        # Created on first spawn: for seed=None the SeedSequence gathers OS
        # entropy, which purely analytic evaluations should never pay for.
        self._root: Optional[np.random.SeedSequence] = None

    # ------------------------------------------------------------------ seeds
    def spawn_seeds(self, n: int) -> List[np.random.SeedSequence]:
        """Spawn *n* fresh child seed sequences from the root.

        Successive calls continue the spawn counter, so a scenario that calls
        this in a fixed order gets the same seed stream on every backend.
        """
        if n < 0:
            raise ValueError("cannot spawn a negative number of seeds")
        if self._root is None:
            import numpy as np
            self._root = np.random.SeedSequence(self.seed)
        return list(self._root.spawn(n)) if n else []

    def spawn_seed(self) -> np.random.SeedSequence:
        """Spawn a single child seed sequence."""
        return self.spawn_seeds(1)[0]

    # ------------------------------------------------------------------ reps
    def reps_or(self, default: int) -> int:
        """The requested replication budget, or *default* when unspecified."""
        reps = default if self.reps is None else self.reps
        if reps < 1:
            raise ValueError("replication budget must be >= 1")
        return reps

    def shards_for(self, total: int,
                   shard_size: int = DEFAULT_SHARD_SIZE) -> List[int]:
        """Shard sizes for *total* replications (backend independent)."""
        return shard_counts(total, shard_size)

    # ------------------------------------------------------------------ execution
    def map(self, func: Callable[[T], R], tasks: Iterable[T]) -> List[R]:
        """Run picklable *tasks* through the backend; results in task order."""
        return self.backend.map(func, list(tasks))
