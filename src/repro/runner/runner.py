"""The experiment runner: execution contexts, seed streams and sharding.

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

Persistence hook
----------------
:class:`ExperimentRunner` accepts an optional *store* — any object with the
three-method surface of :class:`~repro.report.store.ResultStore`
(``key(scenario, params, seed, reps)``, ``get(key)``,
``put(...)``).  When a
store is attached, :meth:`ExperimentRunner.run_record` first looks the
``(scenario, canonical params, seed, reps, code version)`` cell up and returns
the stored result on a hit, so interrupted sweeps resume instead of recompute;
on a miss it runs the scenario and writes the result through.  The runner only
ever talks to the store duck-typed, so :mod:`repro.runner` stays importable
without the report layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, List, Optional,
                    Sequence, TypeVar, Union)

from repro.runner.backends import ExecutionBackend, SerialBackend, make_backend
from repro.runner.registry import ScenarioSpec, get_scenario, load_builtin_scenarios

if TYPE_CHECKING:  # numpy loads when the first seed is spawned
    import numpy as np

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ExecutionContext",
    "ExperimentRunner",
    "RunRecord",
    "run_scenario",
    "seed_to_int",
    "shard_counts",
]

T = TypeVar("T")
R = TypeVar("R")

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


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one :meth:`ExperimentRunner.run_record` call.

    Attributes
    ----------
    spec:
        The resolved :class:`~repro.runner.registry.ScenarioSpec`.
    result:
        The scenario's :class:`~repro.experiments.common.ExperimentResult`
        (freshly computed, or reloaded from the store on a cache hit).
    params:
        The *effective* scenario parameters: registered defaults layered
        under caller overrides.  This is what the store key is computed from.
    seed / reps:
        The effective root seed and replication budget of the run (``reps``
        is resolved against the spec's ``default_reps``, since that is what
        identifies the cell in the store).
    elapsed_seconds:
        Wall-clock compute time.  On a cache hit this is the *original* run's
        elapsed time (the lookup itself is effectively free).
    cached:
        ``True`` when the result came out of the store without executing the
        scenario.
    backend:
        Description of the backend that actually computed the result — on a
        cache hit, the *original* run's backend, not this invocation's.
    key:
        The store's content address for this cell (``None`` when the runner
        has no store attached).
    """

    spec: ScenarioSpec
    result: Any
    params: dict
    seed: Optional[int]
    reps: Optional[int]
    elapsed_seconds: float
    cached: bool = False
    backend: str = ""
    key: Optional[str] = None


class ExperimentRunner:
    """Resolve scenarios from the registry and execute them on a backend.

    An optional *store* (see :class:`~repro.report.store.ResultStore`) turns
    the runner into a write-through cache: already-computed
    ``(scenario, params, seed, reps)`` cells are reloaded instead of re-run.

    >>> runner = ExperimentRunner(seed=7)
    >>> result = runner.run("validation", reps=500)     # doctest: +SKIP
    """

    def __init__(self, backend: Union[str, ExecutionBackend, None] = None, *,
                 workers: Optional[int] = None, seed: Optional[int] = None,
                 reps: Optional[int] = None, store: Optional[Any] = None) -> None:
        self.backend = make_backend(backend, workers)
        self.seed = seed
        self.reps = reps
        self.store = store

    def _resolve(self, name_or_spec: Union[str, ScenarioSpec]) -> ScenarioSpec:
        if isinstance(name_or_spec, ScenarioSpec):
            return name_or_spec
        load_builtin_scenarios()
        return get_scenario(name_or_spec)

    def run_record(self, name_or_spec: Union[str, ScenarioSpec], *,
                   seed: Optional[int] = None, reps: Optional[int] = None,
                   force: bool = False, **params) -> RunRecord:
        """Run one scenario (or serve it from the store) with full metadata.

        ``seed``/``reps`` override the runner-level defaults; ``params`` are
        scenario keyword parameters layered over the spec's registered
        defaults.  With a store attached, a cache hit on the
        ``(scenario, params, seed, reps, code version)`` key skips execution
        entirely unless ``force`` is given; a miss (or a forced run) executes
        the scenario and writes the result through.  ``reps`` is resolved
        against the scenario's ``default_reps`` before keying, and
        fresh-entropy runs (effective seed ``None``) bypass the store in both
        directions — they are not reproducible, so they are never cached.
        """
        spec = self._resolve(name_or_spec)
        eff_seed = self.seed if seed is None else seed
        eff_reps = self.reps if reps is None else reps
        # The cell identity uses the *resolved* budget: an omitted --reps and
        # an explicit --reps <scenario default> are the same work, and a later
        # change to a scenario's default_reps must miss, not serve the old
        # default's results.
        key_reps = eff_reps if eff_reps is not None else spec.default_reps
        merged = {**spec.defaults, **params}

        # seed=None means "fresh OS entropy" — two such runs are *different*
        # experiments, so they must neither be served from nor written to the
        # store (a constant-key cache would replay the first run forever).
        key: Optional[str] = None
        cacheable = self.store is not None and eff_seed is not None
        if cacheable:
            key = self.store.key(spec.name, merged, eff_seed, key_reps)
            if not force:
                hit = self.store.get(key)
                if hit is not None:
                    return RunRecord(spec=spec, result=hit.result, params=merged,
                                     seed=eff_seed, reps=key_reps,
                                     elapsed_seconds=hit.elapsed_seconds,
                                     cached=True, backend=hit.backend, key=key)

        ctx = ExecutionContext(backend=self.backend, seed=eff_seed, reps=eff_reps)
        start = time.perf_counter()
        result = spec.func(ctx, **merged)
        elapsed = time.perf_counter() - start
        if cacheable:
            self.store.put(spec.name, merged, eff_seed, key_reps,
                           backend=self.backend.describe(),
                           elapsed_seconds=elapsed, result=result)
        return RunRecord(spec=spec, result=result, params=merged, seed=eff_seed,
                         reps=key_reps, elapsed_seconds=elapsed, cached=False,
                         backend=self.backend.describe(), key=key)

    def run(self, name_or_spec: Union[str, ScenarioSpec], *,
            seed: Optional[int] = None, reps: Optional[int] = None, **params):
        """Run one scenario and return its ``ExperimentResult``.

        Thin wrapper over :meth:`run_record` for callers that only want the
        result; the record variant additionally reports cache status, the
        store key and elapsed time.
        """
        return self.run_record(name_or_spec, seed=seed, reps=reps,
                               **params).result


def run_scenario(name: str, *, backend: Union[str, ExecutionBackend, None] = None,
                 workers: Optional[int] = None, seed: Optional[int] = None,
                 reps: Optional[int] = None, store: Optional[Any] = None,
                 **params):
    """One-shot convenience wrapper around :class:`ExperimentRunner`.

    >>> from repro.runner import run_scenario
    >>> result = run_scenario("table1", simulate=True, reps=2_000,
    ...                       backend="process", workers=4, seed=1)  # doctest: +SKIP
    """
    runner = ExperimentRunner(backend, workers=workers, seed=seed, reps=reps,
                              store=store)
    return runner.run(name, **params)
