"""Execution backends: where replication tasks actually run.

A backend exposes one operation, :meth:`ExecutionBackend.map`, with the same
contract as the built-in ``map``: apply a picklable top-level function to a
sequence of picklable tasks and return the results *in task order*.  Because
every task carries its own pre-spawned seed and ordering is preserved, a
scenario produces bit-identical results on every backend.

``SerialBackend`` runs tasks inline; ``ProcessPoolBackend`` fans them out over
one :class:`concurrent.futures.ProcessPoolExecutor` kept for the backend's
life.  Whoever creates a backend owns it and calls ``close()``.
"""

from __future__ import annotations

import abc
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

__all__ = ["ExecutionBackend", "SerialBackend", "ProcessPoolBackend", "make_backend"]

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
