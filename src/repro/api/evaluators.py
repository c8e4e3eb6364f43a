"""The evaluation engines behind :func:`repro.api.evaluate`.

Three registered :class:`Evaluator` implementations compute the same
:class:`~repro.api.evaluation.Evaluation` for interval-quantity systems (a
fourth — the ``strategy`` engine measuring whole recovery-scheme runs —
lives in :mod:`repro.api.strategy`):

``analytic``
    :class:`~repro.markov.recovery_line_interval.RecoveryLineIntervalModel` —
    exact phase-type moments, densities and counts (lumped, dense or sparse
    chain, resolved automatically).
``mc``
    :class:`~repro.markov.montecarlo.ModelSimulator` — the paper's own
    methodology: batched direct sampling of the competing Poisson processes.
``des``
    :class:`~repro.sim.interval_sampler.DESIntervalSampler` — the same
    observable measured on the discrete-event kernel with named random
    streams; an independent stochastic cross-check of ``mc``.

The stochastic engines split their budget into the runner's fixed-size
shards, each with a driver-spawned seed (:meth:`Evaluator.tasks`), so
evaluations are bit-identical across serial and process-pool backends — and
:func:`repro.api.facade.evaluate_in_context` can flatten the shards of many
cells into one backend fan-out.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.api.evaluation import Evaluation
from repro.api.spec import StudySpec, SystemSpec
from repro.bench import phase as _phase
from repro.runner import ExecutionContext, seed_to_int

if TYPE_CHECKING:  # each engine loads its numeric modules where it computes
    import numpy as np

    from repro.markov.montecarlo import SimulatedIntervals
    from repro.markov.recovery_line_interval import RecoveryLineIntervalModel

__all__ = [
    "AUTO_FULL_CHAIN_MAX_N",
    "AnalyticEvaluator",
    "DiscreteEventEvaluator",
    "Evaluator",
    "MonteCarloEvaluator",
    "UnsupportedMetricError",
    "get_evaluator",
    "list_methods",
    "load_engine",
    "register_evaluator",
    "resolve_method",
]


class UnsupportedMetricError(ValueError):
    """A requested metric is outside the chosen engine's capabilities."""


#: Largest process count for which the full ``2^n``-state chain is considered
#: auto-selectable (the sparse backend stays comfortably tractable here; see
#: docs/ANALYTIC.md).  Beyond it, symmetric systems still run analytically
#: through the lumped chain when the metrics allow, everything else falls
#: back to Monte-Carlo.
AUTO_FULL_CHAIN_MAX_N = 14

#: Metrics the stochastic samplers cannot estimate (no density estimation —
#: the empirical cdf/sf are fine, a kernel-free pdf is not).
_STOCHASTIC_UNSUPPORTED = frozenset({"pdf"})

#: Metrics the lumped symmetric chain can serve without building the full
#: chain (the count metrics need full-chain occupancy).
_LUMPED_METRICS = frozenset({"mean", "variance", "std", "pdf", "cdf", "sf"})

#: Largest ``n`` whose full chain the ``auto`` backend runs dense: its
#: ``2^n`` transient states are at most
#: :data:`repro.markov.operators.DENSE_STATE_LIMIT` (named here without
#: importing the chain stack; a test pins the two together).
_DENSE_FULL_CHAIN_MAX_N = 9

#: Metrics the phase-type *approximation* of a non-exponential failure law
#: cannot serve: the per-process count/completion quantities come from the
#: split-chain occupancy analysis, which is specific to the exponential
#: ``2^n`` chain.  The stochastic engines estimate them exactly.
_PH_APPROX_UNSERVABLE = frozenset({"rp_counts", "completion_probabilities"})


@dataclass(frozen=True)
class SampleTask:
    """One picklable stochastic work item: a shard of a cell's budget."""

    system: Dict[str, object]
    n_intervals: int
    seed: np.random.SeedSequence
    max_events: int
    engine: str


def sample_shard(task: SampleTask) -> SimulatedIntervals:
    """Worker entry point shared by the ``mc`` and ``des`` engines."""
    system = SystemSpec.from_dict(task.system)
    params = system.build()
    law = system.failure_law
    if task.engine == "mc":
        from repro.markov.montecarlo import (ModelSimulator,
                                             RenewalModelSimulator)
        if law != "exponential":
            sampler = RenewalModelSimulator(params, seed=task.seed,
                                            failure_law=law,
                                            failure_shape=system.failure_shape)
            return sampler.sample_intervals(
                task.n_intervals, max_events_per_interval=task.max_events)
        return ModelSimulator(params, seed=task.seed).sample_intervals(
            task.n_intervals, max_events_per_interval=task.max_events)
    from repro.sim.interval_sampler import DESIntervalSampler
    sampler = DESIntervalSampler(params, seed=seed_to_int(task.seed),
                                 max_events_per_interval=task.max_events,
                                 failure_law=law,
                                 failure_shape=system.failure_shape)
    return sampler.sample_intervals(task.n_intervals)


class Evaluator:
    """Protocol-with-defaults every evaluation engine implements.

    Deterministic engines override :meth:`evaluate` directly; stochastic
    engines implement the :meth:`tasks` / :meth:`assemble` pair (and point
    :attr:`worker` at their picklable task function) so the facade can fan
    the work items of many cells through one backend ``map`` while
    :meth:`evaluate` remains the single-cell convenience composition.
    """

    #: Registry key and the ``method=`` name users write.
    name: str = "abstract"

    #: Whether results depend on the seed/budget (drives the store identity:
    #: stochastic cells key on their replication budget, exact ones do not).
    stochastic: bool = False

    #: Module-level function the backend maps over :meth:`tasks` output.
    worker = staticmethod(sample_shard)

    #: The modules the engine computes with.  Its code imports them where it
    #: computes, so a store hit loads none of them; :func:`load_engine`
    #: imports them when the executor plans a cell.
    modules: Tuple[str, ...] = ()

    def modules_for(self, spec: StudySpec) -> Tuple[str, ...]:
        """The :attr:`modules` computing *spec* (engines with more than one
        route narrow them per cell)."""
        return self.modules

    def validate(self, spec: StudySpec) -> None:
        """Reject *spec* early when this engine cannot serve it (no-op here)."""

    def tasks(self, spec: StudySpec, ctx: ExecutionContext) -> List[object]:
        """Picklable work items for *spec* (empty for deterministic engines)."""
        return []

    def cell_tasks(self, specs: Sequence[StudySpec], ctx: ExecutionContext
                   ) -> Tuple[List[object], List[int]]:
        """Work items for many cells sharing one context, plus slice bounds.

        The default simply concatenates :meth:`tasks` per cell — each cell
        spawns its own seeds, continuing the context's spawn counter.
        Engines with a cross-cell seed policy (the strategy engine's common
        random numbers) override this.
        """
        tasks: List[object] = []
        bounds = [0]
        for spec in specs:
            tasks.extend(self.tasks(spec, ctx))
            bounds.append(len(tasks))
        return tasks, bounds

    def assemble(self, spec: StudySpec,
                 outputs: Sequence[object]) -> Evaluation:
        """Combine the mapped task outputs into the evaluation."""
        raise NotImplementedError

    def evaluate(self, spec: StudySpec,
                 ctx: Optional[ExecutionContext] = None) -> Evaluation:
        """Evaluate one cell (tasks through the context's backend).

        Without a context one is built from the spec's own seed/reps, so
        direct engine use honours the declared seed policy exactly like the
        facade path does.
        """
        if ctx is None:
            ctx = ExecutionContext(seed=spec.seed, reps=spec.reps)
        # The phase markers feed `python -m repro eval --timing`; they are
        # no-ops (a shared null context) unless a collector is active.
        with _phase("assembly"):
            tasks = self.tasks(spec, ctx)
        with _phase("sim"):
            outputs = ctx.map(self.worker, tasks)
        with _phase("reduce"):
            return self.assemble(spec, outputs)


class AnalyticEvaluator(Evaluator):
    """Exact evaluation: phase-type interval model, or — for ``strategy``
    systems — the Section 3 closed forms of the synchronized scheme."""

    name = "analytic"
    #: A dense cell: the chain stack and the LAPACK binding, no scipy.
    modules = ("repro.markov.recovery_line_interval", "repro.util.blas")
    #: The Section 3 closed forms of a ``strategy`` cell: no Markov chain.
    closed_form_modules = ("repro.api.strategy",
                           "repro.analysis.synchronized_loss",
                           "repro.workloads.generators")

    def modules_for(self, spec: StudySpec) -> Tuple[str, ...]:
        """The dense cell's modules, plus what the cell's path calls: the
        paper's parameter tables, the lumped chain, the split chain behind
        per-process counts, and scipy for the sparse backend, the matrix
        exponential behind a distribution and the phase-type fit of a
        non-exponential failure law."""
        if spec.system.kind == "strategy":
            return self.closed_form_modules
        modules = self.modules
        if spec.system.kind in ("table1_case", "figure6_case"):
            modules += ("repro.workloads.generators",)
        if spec.options.get("prefer_simplified", True) \
                and _system_is_symmetric(spec.system):
            modules += ("repro.markov.simplified",)
        if spec.wants("rp_counts") or spec.wants("completion_probabilities"):
            modules += ("repro.markov.split_chain",)
        if _runs_sparse(spec):
            modules += ("scipy.sparse", "scipy.sparse.linalg")
        if spec.times and any(spec.wants(m) for m in ("pdf", "cdf", "sf")):
            modules += ("scipy.linalg",)
        if spec.system.failure_law != "exponential":
            modules += ("repro.markov.phfit",)
        return modules

    def validate(self, spec: StudySpec) -> None:
        if spec.system.kind == "strategy":
            # Raises UnsupportedMetricError unless the scheme/metrics have
            # closed forms; evaluating would raise the same error later, but
            # resolve-time is where a bad explicit method should fail.
            from repro.api.strategy import analytic_strategy_checks
            analytic_strategy_checks(spec)
            return
        if spec.system.failure_law != "exponential":
            unservable = sorted(_PH_APPROX_UNSERVABLE & set(spec.metrics))
            if unservable:
                raise UnsupportedMetricError(
                    f"the analytic engine serves failure_law="
                    f"{spec.system.failure_law!r} through a phase-type "
                    f"approximation that cannot compute {unservable}; "
                    "estimate them with method='mc' or 'des'")

    def assemble(self, spec: StudySpec,
                 outputs: Sequence[object]) -> Evaluation:
        return self.evaluate(spec)

    def evaluate(self, spec: StudySpec,
                 ctx: Optional[ExecutionContext] = None) -> Evaluation:
        if spec.system.kind == "strategy":
            from repro.api.strategy import analytic_strategy_evaluation
            with _phase("solve"):
                return analytic_strategy_evaluation(spec)
        options = dict(spec.options)
        if spec.system.failure_law != "exponential":
            self.validate(spec)
            from repro.markov.phfit import renewal_phase_type
            ph_order = options.get("ph_order")
            with _phase("assembly"):
                chain = renewal_phase_type(
                    spec.system.build(), spec.system.failure_law,
                    spec.system.failure_shape,
                    order=None if ph_order is None else int(ph_order),
                    backend=str(options.get("backend", "auto")))
            with _phase("solve"):
                return self._solve_renewal(spec, chain)
        from repro.markov.recovery_line_interval import \
            RecoveryLineIntervalModel
        # Assembly builds the chain (the structure fill included); the
        # factorisation waits for the first solve, so ``solve`` holds it.
        with _phase("assembly"):
            model = RecoveryLineIntervalModel(
                spec.system.build(),
                prefer_simplified=bool(options.get("prefer_simplified", True)),
                backend=str(options.get("backend", "auto")),
                structure_cache=bool(options.get("structure_cache", True)))
            model.phase_type
        with _phase("solve"):
            return self._solve(spec, model)

    def _solve_renewal(self, spec: StudySpec, chain) -> Evaluation:
        """Serve the metrics from the expanded phase-type chain.

        The result is exact for the *fitted* law; against the declared
        Weibull/lognormal law it is an approximation whose error is the
        phase-type fit error (the ``ph-approx-<order>`` backend label and
        the conformance suite's documented tolerances make this explicit).
        """
        import numpy as np
        ph = chain.phase_type
        metrics: Dict[str, float] = {"mean": ph.mean()}
        if spec.wants("variance"):
            metrics["variance"] = ph.variance()
        if spec.wants("std"):
            metrics["std"] = ph.std()
        bad = {name: value for name, value in metrics.items()
               if not np.isfinite(value) or value <= 0.0}
        if bad:
            raise ArithmeticError(
                f"phase-type approximation lost precision for "
                f"{spec.system.to_dict()}: {bad}")
        distributions: Dict[str, Tuple[float, ...]] = {}
        if spec.times and any(spec.wants(m) for m in ("pdf", "cdf", "sf")):
            grid = np.asarray(spec.times, dtype=float)
            distributions["times"] = tuple(spec.times)
            if spec.wants("pdf"):
                distributions["pdf"] = tuple(np.atleast_1d(ph.pdf(grid)))
            if spec.wants("cdf"):
                distributions["cdf"] = tuple(np.atleast_1d(ph.cdf(grid)))
            if spec.wants("sf"):
                distributions["sf"] = tuple(np.atleast_1d(ph.sf(grid)))
        return Evaluation(method=self.name,
                          backend=f"ph-approx-{chain.fit.order}",
                          n_processes=spec.system.n, metrics=metrics,
                          distributions=distributions, rel_tol=spec.rel_tol)

    def _solve(self, spec: StudySpec,
               model: RecoveryLineIntervalModel) -> Evaluation:
        import numpy as np
        # E[X] is always computed (cheap next to the factorisation, which is
        # cached on the model): Evaluation.mean and agrees_with() rely on it
        # regardless of the requested metric set.
        metrics: Dict[str, float] = {"mean": model.mean_interval()}
        if spec.wants("variance"):
            metrics["variance"] = model.interval_variance()
        if spec.wants("std"):
            metrics["std"] = model.interval_std()
        # E[X] and the dispersion metrics are strictly positive for every
        # valid parameterisation; a non-finite or non-positive value means
        # the fundamental-matrix solve lost all precision (E[X] beyond
        # ~1e15 at extreme communication densities overflows float64), and
        # garbage must not masquerade as an exact result.
        bad = {name: value for name, value in metrics.items()
               if not np.isfinite(value) or value <= 0.0}
        if bad:
            raise ArithmeticError(
                f"analytic solve lost precision for {spec.system.to_dict()}: "
                f"{bad}; the interval metrics are positive by construction, "
                "so this parameterisation is outside float64 range — reduce "
                "the communication density or use a stochastic engine")
        rp_counts = None
        if spec.wants("rp_counts"):
            rp_counts = tuple(float(v) for v in
                              model.expected_rp_counts(counting=spec.counting))
        completion = None
        if spec.wants("completion_probabilities"):
            completion = tuple(float(v)
                               for v in model.completion_probabilities())
        distributions: Dict[str, Tuple[float, ...]] = {}
        if spec.times and any(spec.wants(m) for m in ("pdf", "cdf", "sf")):
            grid = np.asarray(spec.times, dtype=float)
            distributions["times"] = tuple(spec.times)
            if spec.wants("pdf"):
                distributions["pdf"] = tuple(np.atleast_1d(model.pdf(grid)))
            if spec.wants("cdf"):
                distributions["cdf"] = tuple(np.atleast_1d(model.cdf(grid)))
            if spec.wants("sf"):
                distributions["sf"] = tuple(np.atleast_1d(model.survival(grid)))
        return Evaluation(method=self.name, backend=model.analytic_backend,
                          n_processes=model.params.n, metrics=metrics,
                          rp_counts=rp_counts,
                          completion_probabilities=completion,
                          distributions=distributions, rel_tol=spec.rel_tol)


class _StochasticEvaluator(Evaluator):
    """Shared shard/assemble machinery of the ``mc`` and ``des`` engines."""

    stochastic = True

    #: ``Evaluation.backend`` label; subclasses override.
    backend_label = "stochastic"

    def _check_metrics(self, spec: StudySpec) -> None:
        if spec.system.kind == "strategy":
            raise UnsupportedMetricError(
                f"the {self.name!r} engine samples interval quantities, not "
                "recovery-scheme runs; evaluate 'strategy' systems with "
                "method='strategy' (measured) or 'analytic' (closed forms)")
        unsupported = sorted(_STOCHASTIC_UNSUPPORTED & set(spec.metrics))
        if unsupported:
            raise UnsupportedMetricError(
                f"the {self.name!r} engine cannot estimate {unsupported}; "
                "use method='analytic' for densities")

    validate = _check_metrics

    def tasks(self, spec: StudySpec, ctx: ExecutionContext) -> List[SampleTask]:
        """Fixed-size shards with driver-spawned seeds, in spawn order.

        The shard layout depends only on the budget (never on the backend or
        worker count) and the seeds are spawned here, in the driver — the
        same determinism contract as :mod:`repro.experiments.sampling`.
        """
        self._check_metrics(spec)
        reps = ctx.reps_or(spec.effective_reps())
        sizes = ctx.shards_for(reps)
        seeds = ctx.spawn_seeds(len(sizes))
        system = spec.system.to_dict()
        max_events = int(spec.options.get("max_events_per_interval",
                                          10_000_000))
        return [SampleTask(system=system, n_intervals=size, seed=seed,
                           max_events=max_events, engine=self.name)
                for size, seed in zip(sizes, seeds)]

    def assemble(self, spec: StudySpec,
                 outputs: Sequence[SimulatedIntervals]) -> Evaluation:
        import numpy as np

        from repro.markov.montecarlo import concatenate_intervals
        sample = concatenate_intervals(list(outputs))
        lengths = sample.lengths
        # The mean is always reported (Evaluation.mean / agrees_with depend
        # on it), as is its standard error.
        metrics: Dict[str, float] = {"mean": sample.mean_interval()}
        if spec.wants("variance"):
            metrics["variance"] = float(lengths.var(ddof=1)) \
                if sample.n_samples > 1 else 0.0
        if spec.wants("std"):
            metrics["std"] = float(lengths.std(ddof=1)) \
                if sample.n_samples > 1 else 0.0
        metrics["stderr_mean"] = sample.interval_stderr()
        rp_counts = None
        if spec.wants("rp_counts"):
            rp_counts = tuple(float(v)
                              for v in sample.mean_rp_counts(spec.counting))
        completion = None
        if spec.wants("completion_probabilities"):
            completion = tuple(float(v)
                               for v in sample.completion_frequencies())
        distributions: Dict[str, Tuple[float, ...]] = {}
        if spec.times and any(spec.wants(m) for m in ("cdf", "sf")):
            grid = np.asarray(spec.times, dtype=float)
            sorted_lengths = np.sort(lengths)
            ecdf = np.searchsorted(sorted_lengths, grid,
                                   side="right") / sample.n_samples
            distributions["times"] = tuple(spec.times)
            if spec.wants("cdf"):
                distributions["cdf"] = tuple(ecdf)
            if spec.wants("sf"):
                distributions["sf"] = tuple(1.0 - ecdf)
        return Evaluation(method=self.name, backend=self.backend_label,
                          n_processes=sample.n_processes, metrics=metrics,
                          rp_counts=rp_counts,
                          completion_probabilities=completion,
                          distributions=distributions,
                          n_samples=sample.n_samples, rel_tol=spec.rel_tol)


class MonteCarloEvaluator(_StochasticEvaluator):
    """Batched model-level Monte-Carlo (:class:`ModelSimulator`)."""

    name = "mc"
    backend_label = "model-mc"
    modules = ("repro.markov.montecarlo", "repro.workloads.generators")


class DiscreteEventEvaluator(_StochasticEvaluator):
    """Discrete-event measurement (:class:`DESIntervalSampler`)."""

    name = "des"
    backend_label = "des-engine"
    modules = ("repro.markov.montecarlo", "repro.sim.interval_sampler",
               "repro.workloads.generators")


_EVALUATORS: Dict[str, Evaluator] = {}

#: Engines registered on first use: name -> the module that registers it.
#: The strategy engine pulls in the recovery runtimes, the event kernel and
#: the fault models, which no analytic/mc/des evaluation needs.
_LAZY_EVALUATORS: Dict[str, str] = {"strategy": "repro.api.strategy"}


def register_evaluator(evaluator: Evaluator) -> Evaluator:
    """Register an engine under ``evaluator.name`` (an extension point)."""
    _EVALUATORS[evaluator.name] = evaluator
    return evaluator


register_evaluator(AnalyticEvaluator())
register_evaluator(MonteCarloEvaluator())
register_evaluator(DiscreteEventEvaluator())


def list_methods() -> List[str]:
    """The registered engine names, sorted (plus the ``auto`` selector)."""
    return sorted(set(_EVALUATORS) | set(_LAZY_EVALUATORS))


def get_evaluator(method: str) -> Evaluator:
    """Look up a registered engine; unknown names list the alternatives."""
    if method not in _EVALUATORS and method in _LAZY_EVALUATORS:
        import_module(_LAZY_EVALUATORS[method])
    try:
        return _EVALUATORS[method]
    except KeyError:
        known = ", ".join(list_methods())
        raise KeyError(f"unknown evaluation method {method!r}; known methods: "
                       f"auto, {known}") from None


def load_engine(method: str, spec: StudySpec) -> None:
    """Import the modules *method* computes *spec* with (a no-op once
    loaded; see :meth:`Evaluator.modules_for`).

    The executor calls this when it plans a cell, before any backend map,
    so ``--timing`` charges the imports to its ``import`` row and
    process-pool workers fork with the engine already loaded.
    """
    missing = [name for name in get_evaluator(method).modules_for(spec)
               if name not in sys.modules]
    if missing:
        with _phase("import"):
            for name in missing:
                import_module(name)


def _runs_sparse(spec: StudySpec) -> bool:
    """Whether an analytic cell may take the sparse backend (read from the
    spec alone: building the system would import what is being planned)."""
    backend = spec.options.get("backend", "auto")
    if backend != "auto":
        return backend == "sparse"
    if spec.system.n <= _DENSE_FULL_CHAIN_MAX_N:
        return False
    lumped = bool(spec.options.get("prefer_simplified", True)) \
        and spec.system.kind in ("symmetric", "heterogeneous") \
        and _system_is_symmetric(spec.system)
    return not (lumped and _LUMPED_METRICS.issuperset(spec.metrics))


def _system_is_symmetric(system: SystemSpec) -> bool:
    if system.kind == "symmetric":
        return True
    if system.kind == "heterogeneous":
        return float(system.args["mu_gradient"]) == 1.0 \
            and float(system.args["locality"]) == 0.0
    return system.build().is_symmetric()


def resolve_method(spec: StudySpec, method: str = "auto") -> str:
    """Resolve ``auto`` to a concrete engine and validate explicit choices.

    The auto rule (documented in docs/ARCHITECTURE.md):

    0. ``strategy`` systems — **analytic** when every requested metric has a
       Section 3 closed form (synchronized scheme only), otherwise the
       measuring **strategy** engine.
    1. ``n <= AUTO_FULL_CHAIN_MAX_N`` — the full chain is tractable, every
       metric is exact: **analytic**.
    2. larger but symmetric, and only lumped-servable metrics requested
       (moments/distributions, no per-process counts): **analytic** via the
       lumped ``n + 2``-state chain.
    3. otherwise **mc** — unless a density was requested, which no sampler
       can estimate; that is an error asking for an explicit method.

    A non-exponential ``failure_law`` short-circuits to **mc**: the analytic
    engine is then a phase-type *approximation*, which auto-selection must
    never silently substitute for an exact result — it is opt-in via
    ``method='analytic'`` (a requested density, which only the approximation
    can serve, is an error asking for that explicit opt-in).
    """
    if method in (None, "auto"):
        if spec.system.kind == "strategy":
            from repro.api.strategy import ANALYTIC_STRATEGY_METRICS
            if spec.system.scheme == "synchronized" \
                    and set(spec.metrics) <= ANALYTIC_STRATEGY_METRICS:
                return "analytic"
            return "strategy"
        if spec.system.failure_law != "exponential":
            unsupported = sorted(_STOCHASTIC_UNSUPPORTED & set(spec.metrics))
            if unsupported:
                raise UnsupportedMetricError(
                    f"metrics {unsupported} need the analytic engine, which "
                    f"under failure_law={spec.system.failure_law!r} is a "
                    "phase-type approximation; pass method='analytic' "
                    "explicitly to accept the approximation")
            return "mc"
        n = spec.system.n
        if n <= AUTO_FULL_CHAIN_MAX_N:
            return "analytic"
        # The lumped shortcut only applies when the evaluator is actually
        # allowed to take it: options forcing the full chain would make
        # "analytic" build 2^n states here, which is exactly what the size
        # cut-off above exists to prevent.
        if _system_is_symmetric(spec.system) \
                and set(spec.metrics) <= _LUMPED_METRICS \
                and bool(spec.options.get("prefer_simplified", True)):
            return "analytic"
        unsupported = sorted(_STOCHASTIC_UNSUPPORTED & set(spec.metrics))
        if unsupported:
            raise UnsupportedMetricError(
                f"metrics {unsupported} need the analytic engine, but the "
                f"state space of n={n} is beyond the auto-selection limit "
                f"({AUTO_FULL_CHAIN_MAX_N}); pass method='analytic' "
                "explicitly to force it")
        return "mc"
    name = str(method)
    evaluator = get_evaluator(name)
    evaluator.validate(spec)
    return name
