"""The experiment runner: resolve a scenario, run it in an execution context.

The :class:`~repro.runner.backends.ExecutionContext` a scenario receives
carries the determinism contract (seed streams spawned in the driver,
backend-independent shards); see :mod:`repro.runner.backends`.

Persistence hook
----------------
:class:`ExperimentRunner` accepts an optional *store* — any object with the
three-method surface of :class:`~repro.report.store.ResultStore`
(``identity(scenario, params, seed, reps)``, ``get(key)`` and
``put(identity, ...)``).  When a
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
from typing import Any, Optional, Union

from repro.runner.backends import (ExecutionBackend, ExecutionContext,
                                   make_backend)
from repro.runner.registry import ScenarioSpec, get_scenario, load_builtin_scenarios

__all__ = ["ExperimentRunner", "RunRecord", "run_scenario"]

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
            identity = self.store.identity(spec.name, merged, eff_seed,
                                           key_reps)
            key = identity.key
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
            self.store.put(identity, backend=self.backend.describe(),
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
