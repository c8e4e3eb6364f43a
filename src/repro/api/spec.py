"""Declarative study specifications: what to evaluate, not how.

A :class:`StudySpec` names a system (via :class:`SystemSpec`), the metrics of
the recovery-line interval distribution to compute, the stochastic budget and
seed policy, and optional sweep axes.  It is frozen, canonically serializable
(:meth:`StudySpec.to_dict` / :meth:`StudySpec.from_dict` round-trip exactly),
and content-addressable: :meth:`StudySpec.canonical_key` is *the same* SHA-256
cell key the :class:`~repro.report.store.ResultStore` computes for the
facade's internal ``evaluate`` scenario, so a spec evaluated through
:func:`repro.api.evaluate` with a store attached can predict its own cache
address — and cache hits survive any detour through JSON.

The specs deliberately reuse the store's canonicalisation
(:func:`~repro.report.store.canonical_params`): tuples and lists, numpy and
Python scalars, and differently-ordered dicts all collapse to one canonical
form before hashing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import product
from typing import (TYPE_CHECKING, Dict, Iterator, Mapping, Optional,
                    Sequence, Tuple)

from repro.report.store import canonical_params

if TYPE_CHECKING:  # a spec builds its system only where an engine computes
    from repro.core.parameters import SystemParameters

__all__ = [
    "DEFAULT_EVAL_REPS",
    "DEFAULT_STRATEGY_REPS",
    "EVALUATE_SCENARIO_NAME",
    "EXECUTION_OPTIONS",
    "FAILURE_LAWS",
    "KNOWN_METRICS",
    "RECOVERY_SCHEMES",
    "STRATEGY_METRICS",
    "StudySpec",
    "SystemSpec",
    "system_axes",
]

#: Name of the facade's internal registered scenario; part of every spec's
#: store identity (see :meth:`StudySpec.canonical_key`).
EVALUATE_SCENARIO_NAME = "evaluate"

#: Default stochastic budget (intervals sampled) when a spec requests a
#: stochastic method but does not state ``reps``.
DEFAULT_EVAL_REPS = 20_000

#: Options that tune *how* a cell is computed without changing any computed
#: number (bit-identity is pinned by tests), excluded from the store identity
#: by :meth:`StudySpec.cell_params`: ``rep_chunk`` sizes the strategy engine's
#: replication chunks, ``structure_cache`` toggles the memoized generator
#: assembly of the analytic engine.
EXECUTION_OPTIONS = ("rep_chunk", "structure_cache")

#: Default replication budget for ``strategy`` systems.  A replication here is
#: one full recovery-scheme *run* (a whole workload driven to completion), not
#: one sampled interval, so the sensible default is orders of magnitude below
#: :data:`DEFAULT_EVAL_REPS`.
DEFAULT_STRATEGY_REPS = 5

#: Metric vocabulary of the interval-quantity systems.  ``mean``/``variance``/
#: ``std`` are moments of the interval ``X``; ``rp_counts`` is the per-process
#: ``E[L_i]`` vector; ``completion_probabilities`` is the ``q_i`` vector;
#: ``pdf``/``cdf``/``sf`` are the distribution of ``X`` evaluated on the
#: spec's ``times`` grid.
KNOWN_METRICS = ("mean", "variance", "std", "rp_counts",
                 "completion_probabilities", "pdf", "cdf", "sf")

#: Metric vocabulary of ``strategy`` systems: headline quantities of one
#: recovery-scheme run, averaged over the replication budget by the
#: ``strategy`` engine.  ``sync_loss`` is the mean waiting loss per committed
#: recovery line (Section 3's ``CL``; measured by the ``strategy`` engine,
#: closed-form via the ``analytic`` engine) and ``expected_wait`` is the
#: analytic ``E[Z]``; both apply to the ``synchronized`` scheme only.
STRATEGY_METRICS = (
    "makespan", "slowdown", "rollbacks", "mean_rollback_distance",
    "max_rollback_distance", "lost_work", "checkpoint_overhead",
    "restart_overhead", "waiting_time", "recovery_lines",
    "recovery_lines_total", "dominoes", "peak_saved_states", "total_saves",
    "completed", "sync_loss", "expected_wait",
)

#: The paper's three checkpointing strategies, as the ``scheme`` argument of
#: the ``strategy`` system kind.
RECOVERY_SCHEMES = ("asynchronous", "synchronized", "pseudo")

#: Distribution metrics require a ``times`` grid.
DISTRIBUTION_METRICS = ("pdf", "cdf", "sf")

#: Engine tuning knobs a spec may carry.  Validated strictly: options are
#: part of the cell's store identity (except the :data:`EXECUTION_OPTIONS`,
#: which change no computed number), so a silently-ignored typo would both
#: mis-route the evaluation and mint a key no correct spec ever matches.
#: ``ph_order`` sets the phase-type fitter order the analytic engine uses
#: for non-exponential failure laws; it changes the computed approximation,
#: so it is identity-bearing (*not* an execution option).
KNOWN_OPTIONS = ("prefer_simplified", "backend", "max_events_per_interval",
                 "rep_chunk", "structure_cache", "ph_order")

#: Recovery-point / fault interarrival laws a system may declare.  The
#: default ``exponential`` is the paper's assumption 5 and keeps every
#: engine exact; ``weibull``/``lognormal`` make interarrivals a renewal
#: process of that law (every timer redrawn when a recovery line forms —
#: for ``strategy`` systems the law governs the fault timeline instead),
#: sampled exactly by the stochastic engines and approximated by the
#: analytic engine through the phase-type fit of
#: :mod:`repro.markov.phfit`.
FAILURE_LAWS = ("exponential", "weibull", "lognormal")

#: System kinds that accept the optional ``failure_law``/``failure_shape``
#: arguments.  The paper-case kinds (``table1_case``/``figure6_case``)
#: reproduce fixed exponential parameter tables and are excluded.
_FAILURE_LAW_KINDS = frozenset({"symmetric", "explicit", "three_process",
                                "heterogeneous", "strategy"})

#: Keys of the optional ``fault_model`` block of ``strategy`` systems.
_FAULT_MODEL_KEYS = frozenset({"groups", "common_mode_rate",
                               "propagation_probability", "cascade_depth"})


def _coerce_number(value, name: str, *, integer: bool = False):
    """Normalise a numeric field so equal numbers share one canonical form.

    ``mu=1`` and ``mu=1.0`` must address the same cell, so rate-like fields
    are always floats and count-like fields always ints.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got a bool")
    if hasattr(value, "item") and callable(value.item):   # numpy scalars
        value = value.item()
    if integer:
        if float(value) != int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _coerce_vector(values, name: str) -> Tuple[float, ...]:
    return tuple(_coerce_number(v, f"{name}[{i}]") for i, v in enumerate(values))


def _coerce_matrix(rows, name: str) -> Tuple[Tuple[float, ...], ...]:
    return tuple(_coerce_vector(row, f"{name}[{i}]") for i, row in enumerate(rows))


def _coerce_fault_model(value, n: int, name: str = "fault_model") -> Dict[str, object]:
    """Validate and canonicalise a correlated-fault ``fault_model`` block.

    ``groups`` (common-mode failure groups, subsets of ``range(n)``) and
    ``common_mode_rate`` are required; ``propagation_probability`` and
    ``cascade_depth`` default to 0 and are *omitted* at their defaults so the
    canonical form — and therefore the store identity — is unique.  Groups
    are sorted (members and groups alike): the block is a set of sets, and
    two spellings of the same model must address the same cell.
    """
    if not isinstance(value, Mapping):
        raise TypeError(f"{name} must be a mapping")
    block = {str(k): v for k, v in dict(value).items()}
    unknown = sorted(set(block) - _FAULT_MODEL_KEYS)
    if unknown:
        raise ValueError(f"{name} does not take {unknown}; expected a subset "
                         f"of {sorted(_FAULT_MODEL_KEYS)}")
    missing = sorted({"groups", "common_mode_rate"} - set(block))
    if missing:
        raise ValueError(f"{name} is missing {missing}")
    groups = []
    for gi, group in enumerate(block["groups"]):
        members = tuple(sorted(
            _coerce_number(m, f"{name}.groups[{gi}]", integer=True)
            for m in group))
        if not members:
            raise ValueError(f"{name}.groups[{gi}] is empty")
        if len(set(members)) != len(members):
            raise ValueError(f"{name}.groups[{gi}] repeats a process")
        if members[0] < 0 or members[-1] >= n:
            raise ValueError(f"{name}.groups[{gi}] names processes outside "
                             f"0..{n - 1}")
        groups.append(members)
    if not groups:
        raise ValueError(f"{name}.groups must name at least one group")
    rate = _coerce_number(block["common_mode_rate"],
                          f"{name}.common_mode_rate")
    if rate <= 0.0:
        raise ValueError(f"{name}.common_mode_rate must be positive")
    probability = _coerce_number(block.get("propagation_probability", 0.0),
                                 f"{name}.propagation_probability")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"{name}.propagation_probability must be in [0, 1]")
    depth = _coerce_number(block.get("cascade_depth", 0),
                           f"{name}.cascade_depth", integer=True)
    if depth < 0:
        raise ValueError(f"{name}.cascade_depth must be >= 0")
    coerced: Dict[str, object] = {"groups": tuple(sorted(groups)),
                                  "common_mode_rate": rate}
    if probability > 0.0:
        coerced["propagation_probability"] = probability
    if depth > 0:
        coerced["cascade_depth"] = depth
    return coerced


def system_axes(kind: str) -> frozenset:
    """Sweepable system-arg axes of *kind* (the per-kind field table plus
    the optional failure-law and fault-model arguments)."""
    axes = set(_SYSTEM_KINDS[kind])
    if kind in _FAILURE_LAW_KINDS:
        axes.update(("failure_law", "failure_shape"))
    if kind == "strategy":
        axes.add("fault_model")
    return frozenset(axes)


#: Per-kind field tables: name -> coercion.  Every kind maps onto one of the
#: existing :class:`SystemParameters` builders (the heterogeneous family is
#: :meth:`SystemParameters.heterogeneous`), so a declared system is
#: guaranteed to be *the same* system every engine analyses.
_SYSTEM_KINDS: Dict[str, Dict[str, str]] = {
    "symmetric": {"n": "int", "mu": "float", "lam": "float"},
    "explicit": {"mu": "vector", "lam": "matrix"},
    "three_process": {"mu": "vector", "lam_12_23_31": "vector"},
    "table1_case": {"case": "int"},
    "figure6_case": {"case": "int"},
    "heterogeneous": {"n": "int", "mu_base": "float", "mu_gradient": "float",
                      "lam_base": "float", "locality": "float"},
    "strategy": {"scheme": "str", "n": "int", "mu": "float",
                 "mu_spread": "float", "lam": "float", "work": "float",
                 "error_rate": "float", "checkpoint_cost": "float",
                 "restart_cost": "float", "sync_interval": "float"},
}

_HETEROGENEOUS_DEFAULTS = {"mu_base": 1.0, "mu_gradient": 1.0,
                           "lam_base": 0.5, "locality": 1.0}

#: Cost/fault defaults of the ``strategy`` kind mirror
#: :func:`repro.workloads.generators.strategy_workload` (and therefore the
#: pre-facade ``homogeneous_workload`` shape of the strategy-comparison
#: experiment).  ``scheme``/``n``/``mu``/``lam``/``work`` stay required.
_STRATEGY_DEFAULTS = {"mu_spread": 1.0, "error_rate": 0.0,
                      "checkpoint_cost": 0.02, "restart_cost": 0.05,
                      "sync_interval": 2.0}


@dataclass(frozen=True)
class SystemSpec:
    """A declarative description of one stochastic system.

    ``kind`` selects a builder; ``args`` are its (canonically normalised)
    keyword arguments:

    ``symmetric``
        ``n``, ``mu``, ``lam`` — :meth:`SystemParameters.symmetric`.
    ``explicit``
        ``mu`` (length-n vector), ``lam`` (n×n matrix) — the raw constructor.
    ``three_process``
        ``mu`` (3 rates), ``lam_12_23_31`` — the paper's Table 1 form.
    ``table1_case`` / ``figure6_case``
        ``case`` — the paper's numbered parameter cases.
    ``heterogeneous``
        ``n``, ``mu_base``, ``mu_gradient``, ``lam_base``, ``locality`` — the
        geometric-gradient / locality-decay family of the heterogeneous sweep.
    ``strategy``
        A recovery *strategy* on a workload instead of an interval model:
        ``scheme`` (one of :data:`RECOVERY_SCHEMES`) plus the
        :func:`~repro.workloads.generators.strategy_workload` axes — ``n``,
        ``mu``/``mu_spread``, ``lam``, ``work`` and the fault-timeline /
        cost parameters ``error_rate``, ``checkpoint_cost``, ``restart_cost``,
        ``sync_interval``.  Evaluated against :data:`STRATEGY_METRICS`.
    """

    kind: str
    args: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SYSTEM_KINDS:
            known = ", ".join(sorted(_SYSTEM_KINDS))
            raise ValueError(f"unknown system kind {self.kind!r}; "
                             f"known kinds: {known}")
        fields = _SYSTEM_KINDS[self.kind]
        args = dict(self.args)
        # The optional failure-law / fault-model arguments are peeled off
        # before the per-kind field checks.  They are stored back *only away
        # from their defaults*: a spec that never mentions them must keep the
        # exact pre-existing canonical form (and store identity).
        law = "exponential"
        law_shape: Optional[float] = None
        fault_model = None
        if self.kind in _FAILURE_LAW_KINDS:
            law = str(args.pop("failure_law", "exponential"))
            if law not in FAILURE_LAWS:
                raise ValueError(f"unknown failure_law {law!r}; known laws: "
                                 f"{', '.join(FAILURE_LAWS)}")
            raw_shape = args.pop("failure_shape", None)
            if law == "exponential":
                if raw_shape is not None:
                    raise ValueError("failure_shape requires a "
                                     "non-exponential failure_law")
            else:
                if raw_shape is None:
                    raise ValueError(f"failure_law {law!r} needs a "
                                     "failure_shape (Weibull k / lognormal σ)")
                law_shape = _coerce_number(raw_shape, "failure_shape")
                if law_shape <= 0.0:
                    raise ValueError("failure_shape must be positive")
        if self.kind == "strategy" and "fault_model" in args:
            fault_model = args.pop("fault_model")
        if self.kind == "heterogeneous":
            for name, default in _HETEROGENEOUS_DEFAULTS.items():
                args.setdefault(name, default)
        elif self.kind == "strategy":
            for name, default in _STRATEGY_DEFAULTS.items():
                args.setdefault(name, default)
        unknown = sorted(set(args) - set(fields))
        if unknown:
            raise ValueError(f"system kind {self.kind!r} does not take "
                             f"{unknown}; expected {sorted(fields)}")
        missing = sorted(set(fields) - set(args))
        if missing:
            raise ValueError(f"system kind {self.kind!r} is missing {missing}")
        coerced: Dict[str, object] = {}
        for name, form in fields.items():
            value = args[name]
            if form == "int":
                coerced[name] = _coerce_number(value, name, integer=True)
            elif form == "float":
                coerced[name] = _coerce_number(value, name)
            elif form == "str":
                coerced[name] = str(value)
            elif form == "vector":
                coerced[name] = _coerce_vector(value, name)
            else:
                coerced[name] = _coerce_matrix(value, name)
        if self.kind == "strategy":
            if coerced["scheme"] not in RECOVERY_SCHEMES:
                raise ValueError(
                    f"unknown recovery scheme {coerced['scheme']!r}; "
                    f"known schemes: {', '.join(RECOVERY_SCHEMES)}")
            if coerced["mu_spread"] <= 0.0:
                raise ValueError("heterogeneity factors must be positive")
        if law != "exponential":
            coerced["failure_law"] = law
            coerced["failure_shape"] = law_shape
        if fault_model is not None:
            coerced["fault_model"] = _coerce_fault_model(
                fault_model, int(coerced["n"]))
        object.__setattr__(self, "args", coerced)

    # ------------------------------------------------------------------ factories
    @classmethod
    def symmetric(cls, n: int, mu: float, lam: float) -> "SystemSpec":
        return cls("symmetric", {"n": n, "mu": mu, "lam": lam})

    @classmethod
    def explicit(cls, params: SystemParameters) -> "SystemSpec":
        """Pin down an arbitrary :class:`SystemParameters` value."""
        return cls("explicit", {"mu": params.mu.tolist(),
                                "lam": params.lam.tolist()})

    @classmethod
    def table1_case(cls, case: int) -> "SystemSpec":
        return cls("table1_case", {"case": case})

    @classmethod
    def figure6_case(cls, case: int) -> "SystemSpec":
        return cls("figure6_case", {"case": case})

    @classmethod
    def heterogeneous(cls, n: int, **kwargs) -> "SystemSpec":
        return cls("heterogeneous", {"n": n, **kwargs})

    @classmethod
    def strategy(cls, scheme: str, n: int, **kwargs) -> "SystemSpec":
        """A recovery strategy on a declarative workload (see class docs)."""
        return cls("strategy", {"scheme": scheme, "n": n, **kwargs})

    # ------------------------------------------------------------------ building
    def build(self) -> SystemParameters:
        """Materialise the declared system as :class:`SystemParameters`."""
        from repro.core.parameters import SystemParameters
        args = dict(self.args)
        if self.kind == "strategy":
            return self.build_workload().params
        if self.kind == "symmetric":
            return SystemParameters.symmetric(args["n"], args["mu"], args["lam"])
        if self.kind == "explicit":
            return SystemParameters(mu=list(args["mu"]),
                                    lam=[list(row) for row in args["lam"]])
        if self.kind == "three_process":
            return SystemParameters.three_process(args["mu"],
                                                  args["lam_12_23_31"])
        if self.kind == "table1_case":
            from repro.workloads.generators import paper_table1_case
            return paper_table1_case(args["case"])
        if self.kind == "figure6_case":
            from repro.workloads.generators import paper_figure6_case
            return paper_figure6_case(args["case"])
        # heterogeneous
        return SystemParameters.heterogeneous(
            args["n"], mu_base=args["mu_base"], mu_gradient=args["mu_gradient"],
            lam_base=args["lam_base"], locality=args["locality"])

    def build_workload(self):
        """Materialise a ``strategy`` system as a runnable ``WorkloadSpec``."""
        if self.kind != "strategy":
            raise ValueError(f"system kind {self.kind!r} declares no workload; "
                             "only 'strategy' systems do")
        from repro.workloads.generators import strategy_workload
        args = dict(self.args)
        return strategy_workload(args["n"], mu=args["mu"],
                                 mu_spread=args["mu_spread"], lam=args["lam"],
                                 work=args["work"],
                                 error_rate=args["error_rate"],
                                 checkpoint_cost=args["checkpoint_cost"],
                                 restart_cost=args["restart_cost"],
                                 failure_law=self.failure_law,
                                 failure_shape=self.failure_shape,
                                 fault_model=self.fault_model)

    @property
    def scheme(self) -> Optional[str]:
        """The recovery scheme of a ``strategy`` system (``None`` otherwise)."""
        if self.kind != "strategy":
            return None
        return str(self.args["scheme"])

    @property
    def failure_law(self) -> str:
        """The declared interarrival law (``"exponential"`` when absent)."""
        return str(self.args.get("failure_law", "exponential"))

    @property
    def failure_shape(self) -> Optional[float]:
        """Shape of a non-exponential law (``None`` for exponential)."""
        value = self.args.get("failure_shape")
        return None if value is None else float(value)

    @property
    def fault_model(self) -> Optional[Dict[str, object]]:
        """The correlated-fault block of a ``strategy`` system, if any."""
        block = self.args.get("fault_model")
        return None if block is None else dict(block)

    @property
    def n(self) -> int:
        """Number of processes of the declared system (without building rates)."""
        if self.kind in ("symmetric", "heterogeneous", "strategy"):
            return int(self.args["n"])
        if self.kind in ("table1_case", "figure6_case"):
            return 3
        return len(self.args["mu"])

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, **canonical_params(dict(self.args))}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SystemSpec":
        payload = dict(payload)
        kind = str(payload.pop("kind"))
        return cls(kind, payload)

    def __hash__(self) -> int:
        # The dataclass-generated hash would TypeError on the dict field;
        # hash the canonical JSON instead, so equal specs hash equal.
        return hash(json.dumps(self.to_dict(), sort_keys=True))


@dataclass(frozen=True)
class StudySpec:
    """One declarative evaluation request (or a sweep of them).

    Attributes
    ----------
    system:
        The :class:`SystemSpec` under study.
    metrics:
        Which quantities to compute (:data:`KNOWN_METRICS` for interval
        systems, :data:`STRATEGY_METRICS` for ``strategy`` systems).
    times:
        Evaluation grid for the distribution metrics (``pdf``/``cdf``/``sf``).
    counting:
        Counting convention for ``rp_counts``: ``"all"`` (the completing
        recovery point included — the paper's Table 1 convention) or
        ``"interior"``.
    reps:
        Stochastic budget (intervals sampled) for the ``mc``/``des`` engines;
        ``None`` means :data:`DEFAULT_EVAL_REPS`.  Ignored by ``analytic``.
    seed:
        Root seed.  ``None`` requests fresh entropy, which also opts the
        evaluation out of result-store caching (unreproducible runs are never
        cached — the same policy the runner applies everywhere).
    rel_tol:
        The stated relative tolerance within which stochastic estimates are
        expected to agree with the analytic values (documented in the result;
        enforced by cross-engine tests, not by the evaluators themselves).
    options:
        Engine tuning knobs that *do* affect results and are therefore part
        of the identity: ``prefer_simplified`` / ``backend`` for the analytic
        chain, ``max_events_per_interval`` for the samplers.
    sweep:
        Optional sweep axes: mapping from a system-arg name (or ``"reps"`` /
        ``"seed"``) to the sequence of values to fan out over.  A spec with
        sweep axes is expanded by :meth:`cells` into the cross product;
        axes iterate in canonical name-sorted order (so a spec and its JSON
        round trip enumerate identically), values in their given order.
    """

    system: SystemSpec
    metrics: Tuple[str, ...] = ("mean", "variance", "std")
    times: Tuple[float, ...] = ()
    counting: str = "all"
    reps: Optional[int] = None
    seed: Optional[int] = None
    rel_tol: float = 0.05
    options: Mapping[str, object] = field(default_factory=dict)
    sweep: Mapping[str, Sequence[object]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        metrics = tuple(str(m) for m in self.metrics)
        # Strategy systems speak the run-report vocabulary, interval systems
        # the interval-distribution one; mixing them would hand an engine a
        # metric it cannot possibly compute, so the spec rejects it up front.
        vocabulary = STRATEGY_METRICS if self.system.kind == "strategy" \
            else KNOWN_METRICS
        unknown = sorted(set(metrics) - set(vocabulary))
        if unknown:
            raise ValueError(
                f"unknown metrics {unknown} for system kind "
                f"{self.system.kind!r}; known metrics: {', '.join(vocabulary)}")
        if not metrics:
            raise ValueError("at least one metric is required")
        times = tuple(_coerce_number(t, "times") for t in self.times)
        needs_grid = [m for m in metrics if m in DISTRIBUTION_METRICS]
        if needs_grid and not times:
            raise ValueError(f"metrics {needs_grid} need a 'times' grid")
        if self.counting not in ("all", "interior"):
            raise ValueError("counting must be 'all' or 'interior'")
        if self.reps is not None and int(self.reps) < 1:
            raise ValueError("reps must be >= 1")
        unknown_options = sorted(set(map(str, dict(self.options)))
                                 - set(KNOWN_OPTIONS))
        if unknown_options:
            raise ValueError(f"unknown options {unknown_options}; "
                             f"known options: {', '.join(KNOWN_OPTIONS)}")
        # Axis order is canonicalised (sorted by name) so that a spec and
        # its JSON round trip — whose dict form is key-sorted — enumerate
        # cells() in the same order.
        sweep = {str(k): tuple(v)
                 for k, v in sorted(dict(self.sweep).items(),
                                    key=lambda kv: str(kv[0]))}
        for axis, values in sweep.items():
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "reps",
                           None if self.reps is None else int(self.reps))
        object.__setattr__(self, "seed",
                           None if self.seed is None else int(self.seed))
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "options",
                           canonical_params(dict(self.options)))
        object.__setattr__(self, "sweep", sweep)

    # ------------------------------------------------------------------ derived
    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep)

    def effective_reps(self) -> int:
        """The stochastic budget with the kind-appropriate default applied."""
        if self.reps is not None:
            return self.reps
        return DEFAULT_STRATEGY_REPS if self.system.kind == "strategy" \
            else DEFAULT_EVAL_REPS

    def wants(self, metric: str) -> bool:
        return metric in self.metrics

    # ------------------------------------------------------------------ sweeps
    def cells(self) -> Iterator["StudySpec"]:
        """Expand the sweep axes into single-cell specs (cross product).

        Axes iterate in canonical (name-sorted) order; within an axis,
        values keep their given order — so the cell sequence is fully
        deterministic, backend independent, and identical for a spec and
        its JSON round trip.
        """
        if not self.sweep:
            yield self
            return
        axes = list(self.sweep.items())
        for combo in product(*(values for _axis, values in axes)):
            cell = self
            system_args = dict(self.system.args)
            system_dirty = False
            for (axis, _values), value in zip(axes, combo):
                if axis == "reps":
                    cell = replace(cell, reps=value, sweep={})
                elif axis == "seed":
                    cell = replace(cell, seed=value, sweep={})
                elif axis in system_axes(self.system.kind):
                    system_args[axis] = value
                    system_dirty = True
                else:
                    raise ValueError(
                        f"sweep axis {axis!r} is neither 'reps', 'seed' nor a "
                        f"field of system kind {self.system.kind!r}")
            if system_dirty:
                cell = replace(cell, system=SystemSpec(self.system.kind,
                                                       system_args), sweep={})
            elif cell.sweep:
                cell = replace(cell, sweep={})
            yield cell

    def cell_count(self) -> int:
        total = 1
        for values in self.sweep.values():
            total *= len(values)
        return total

    # ------------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-stable representation (round-trips exactly)."""
        payload: Dict[str, object] = {
            "system": self.system.to_dict(),
            "metrics": list(self.metrics),
            "counting": self.counting,
            "rel_tol": self.rel_tol,
        }
        if self.times:
            payload["times"] = list(self.times)
        if self.reps is not None:
            payload["reps"] = self.reps
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.options:
            payload["options"] = dict(self.options)
        if self.sweep:
            payload["sweep"] = {k: list(v) for k, v in self.sweep.items()}
        return canonical_params(payload)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StudySpec":
        payload = dict(payload)
        known = {"system", "metrics", "times", "counting", "reps", "seed",
                 "rel_tol", "options", "sweep"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown StudySpec fields {unknown}; "
                             f"expected a subset of {sorted(known)}")
        if "system" not in payload:
            raise ValueError("a StudySpec needs a 'system' entry")
        return cls(
            system=SystemSpec.from_dict(payload["system"]),
            metrics=tuple(payload.get("metrics", ("mean", "variance", "std"))),
            times=tuple(payload.get("times", ())),
            counting=str(payload.get("counting", "all")),
            reps=payload.get("reps"),
            seed=payload.get("seed"),
            rel_tol=payload.get("rel_tol", 0.05),
            options=dict(payload.get("options", {})),
            sweep=dict(payload.get("sweep", {})),
        )

    # ------------------------------------------------------------------ identity
    def cell_params(self, method: str) -> Dict[str, object]:
        """The scenario-parameter dict of this cell's runner/store identity.

        This is the params slot of the cell's store key, and the payload
        the internal ``evaluate`` scenario rebuilds its spec from.  ``seed``
        and ``reps`` are carried *inside* the spec (they are part of its
        serialised form), so the runner-level seed/reps slots of the store
        key stay at the spec's own values; ``rel_tol`` is a
        documentation annotation that affects no computed number, so it is
        excluded from the identity — retightening a tolerance must not
        invalidate a numerically identical cache.  Execution-tuning options
        (:data:`EXECUTION_OPTIONS`) are excluded for the same reason: they
        change how fast a cell computes, never what it computes, so e.g. a
        re-run with a different ``rep_chunk`` must hit the cached cell.
        """
        if self.is_sweep:
            raise ValueError("a sweep spec has no single cell identity; "
                             "expand it with cells() first")
        spec_dict = self.to_dict()
        # seed/reps sit in the runner-level key slots, not inside the params.
        spec_dict.pop("seed", None)
        spec_dict.pop("reps", None)
        spec_dict.pop("rel_tol", None)
        options = spec_dict.get("options")
        if options:
            for name in EXECUTION_OPTIONS:
                options.pop(name, None)
            if not options:
                del spec_dict["options"]
        return {"spec": spec_dict, "method": str(method)}

    def canonical_key(self, method: str = "auto") -> str:
        """The :class:`~repro.report.store.ResultStore` cell key of this spec.

        Resolves ``method="auto"`` first (so auto-selected and explicitly
        named evaluations of the same engine share one cache cell), then
        hashes the identical identity the store hashes when the facade runs
        with a store attached.
        """
        from repro.api.evaluators import resolve_method
        from repro.api.execute import BatchCell, cell_identity
        return cell_identity(BatchCell(self,
                                       resolve_method(self, method))).key

    def __hash__(self) -> int:
        # Mapping fields (options/sweep) defeat the dataclass-generated
        # hash; use the canonical serialised form so equal specs hash equal
        # (e.g. for deduping sweep cells in a set).
        return hash(json.dumps(self.to_dict(), sort_keys=True))
