"""The global scenario registry.

A *scenario* is a callable ``func(ctx, **params) -> ExperimentResult`` whose
first argument is the :class:`~repro.runner.runner.ExecutionContext` injected by
the runner; everything after it must be keyword parameters with defaults so the
CLI can override them.  Registration is decorator based::

    @scenario("table1", paper_reference="Table 1", default_reps=20_000)
    def table1_scenario(ctx, *, simulate=False):
        ...

Names are unique: registering two scenarios under the same name raises
:class:`DuplicateScenarioError` (re-registering the *same* function is a no-op
so module reloads stay harmless).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "DuplicateScenarioError",
    "ScenarioSpec",
    "get_scenario",
    "list_scenarios",
    "load_builtin_scenarios",
    "register_scenario",
    "scenario",
    "unregister_scenario",
]


class DuplicateScenarioError(ValueError):
    """Raised when two different callables claim the same scenario name."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Metadata + entry point of one registered scenario.

    Attributes
    ----------
    name:
        Registry key; also the CLI name (``python -m repro run <name>``).
    func:
        ``func(ctx, **params) -> ExperimentResult``.
    description:
        One-line summary shown by ``python -m repro list``.
    paper_reference:
        The table/figure/section of the paper the scenario reproduces.
    default_reps:
        Default Monte-Carlo replication budget (``None`` for purely analytic
        scenarios, where ``--reps`` is ignored).
    defaults:
        Default keyword parameters merged under any caller overrides.
    renderer:
        Name of the :mod:`repro.report` renderer that turns this scenario's
        result into paper artifacts (``"figure5"``, ``"figure6"``,
        ``"table"``, ``"sync_loss"``, ``"strategy_tradeoff"``, …).  ``None``
        means the generic rendering — an inline markdown table in
        ``REPORT.md`` — which every scenario gets anyway; declared renderers
        *additionally* emit figure/table files.
    internal:
        Infrastructure scenarios (the facade's ``evaluate``) that need
        caller-supplied parameters and therefore must not be swept up by
        generic enumeration (``python -m repro list``, ``report --all``).
        They stay addressable by name.
    """

    name: str
    func: Callable
    description: str = ""
    paper_reference: str = ""
    default_reps: Optional[int] = None
    defaults: Mapping[str, object] = field(default_factory=dict)
    renderer: Optional[str] = None
    internal: bool = False

    @property
    def uses_replications(self) -> bool:
        return self.default_reps is not None


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add *spec* to the global registry; duplicate names are an error."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        if existing.func is spec.func:
            return existing
        # A reload re-runs the decorator on a *fresh* function object; treat
        # the same module+qualname as the same scenario and refresh the entry.
        if (existing.func.__module__ == spec.func.__module__
                and existing.func.__qualname__ == spec.func.__qualname__):
            _REGISTRY[spec.name] = spec
            return spec
        raise DuplicateScenarioError(
            f"scenario {spec.name!r} is already registered "
            f"(by {existing.func.__module__}.{existing.func.__qualname__})")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(name: str, *, description: str = "", paper_reference: str = "",
             default_reps: Optional[int] = None, renderer: Optional[str] = None,
             internal: bool = False,
             **defaults: object) -> Callable[[Callable], Callable]:
    """Decorator registering *func* as scenario *name*; returns *func* unchanged."""

    def decorate(func: Callable) -> Callable:
        doc_first_line = next(iter((func.__doc__ or "").strip().splitlines()), "")
        register_scenario(ScenarioSpec(
            name=name,
            func=func,
            description=description or doc_first_line,
            paper_reference=paper_reference,
            default_reps=default_reps,
            defaults=dict(defaults),
            renderer=renderer,
            internal=internal,
        ))
        return func

    return decorate


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; ``KeyError`` names the known scenarios."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none registered)"
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") \
            from None


def list_scenarios(include_internal: bool = False) -> List[ScenarioSpec]:
    """Registered scenarios, sorted by name.

    Internal infrastructure scenarios are excluded by default so generic
    consumers (``list``, ``report --all``) never invoke a scenario that
    needs caller-supplied parameters.
    """
    return [_REGISTRY[name] for name in sorted(_REGISTRY)
            if include_internal or not _REGISTRY[name].internal]


def unregister_scenario(name: str) -> None:
    """Remove a scenario (test hygiene; unknown names are a no-op)."""
    _REGISTRY.pop(name, None)


def load_builtin_scenarios() -> None:
    """Import every module that registers built-in scenarios.

    Covers the scenario modules of :mod:`repro.experiments`, listed by name
    in ``SCENARIO_MODULES``: the paper artefacts and the facade's internal
    ``evaluate`` scenario.  Idempotent: the imports are cached, and
    re-registration of the same functions is a no-op.  Kept lazy (a
    function, not a module-level import) so that ``repro.runner`` itself
    never depends on the experiment layer.
    """
    from importlib import import_module

    from repro.experiments import SCENARIO_MODULES

    for name in SCENARIO_MODULES:
        import_module(f"repro.experiments.{name}")
