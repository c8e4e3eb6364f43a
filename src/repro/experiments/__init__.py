"""Experiment harness: regenerate every table and figure of the paper.

Each module builds an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` produces the rows/series the paper reports (plus our analytic and
Monte-Carlo values side by side), so that running the benchmark suite doubles as
regenerating the artefacts.  The README's scenario table maps each scenario to
the paper artifact it regenerates.

Every scenario module registers its entry point with the scenario registry
(:mod:`repro.runner`) when it is imported;
:func:`repro.runner.load_builtin_scenarios` imports them all by name (this
package lists them in :data:`SCENARIO_MODULES`), after which
``python -m repro list`` / ``python -m repro run <name>`` (or
:func:`repro.runner.run_scenario`) run any experiment, serially or across a
process pool.  That is the one way to run an experiment.  Importing the
package itself loads nothing else: the result containers resolve on first
access.

Scenarios whose output *is* a paper artifact additionally declare a renderer
(``@scenario(..., renderer="figure5")``); ``python -m repro report`` routes
their results through :mod:`repro.report.figures` into figure/table files
plus a provenance-stamped ``REPORT.md``.
"""

from repro._lazy import lazy_exports

#: The modules whose import registers the built-in scenarios.
SCENARIO_MODULES = ("ablation", "cascading_faults", "evaluate", "figure5",
                    "figure5_full_chain", "figure6", "heterogeneous_sweep",
                    "prp_costs", "strategy_comparison", "sync_loss", "table1",
                    "validation")

__all__ = ["ExperimentResult", "ExperimentRow"]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.common" for name in __all__})
