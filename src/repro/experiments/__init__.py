"""Experiment harness: regenerate every table and figure of the paper.

Each module builds an :class:`~repro.experiments.common.ExperimentResult` whose
``render()`` produces the rows/series the paper reports (plus our analytic and
Monte-Carlo values side by side), so that running the benchmark suite doubles as
regenerating the artefacts.  See DESIGN.md §3 for the experiment index.

Every scenario module registers its entry point with the scenario registry
(:mod:`repro.runner`) when it is imported;
:func:`repro.runner.load_builtin_scenarios` imports them all by name (this
package lists them in :data:`SCENARIO_MODULES`), after which
``python -m repro list`` / ``python -m repro run <name>`` (or
:func:`repro.runner.run_scenario`) run any experiment, serially or across a
process pool.  Importing the package itself loads nothing else: the result
containers and the ``run_*`` compatibility wrappers resolve on first access.

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

#: Compatibility wrapper -> the scenario module that defines it.
_WRAPPERS = {
    "heterogeneous_parameters": "heterogeneous_sweep",
    "run_figure5": "figure5",
    "run_figure5_full_chain": "figure5_full_chain",
    "run_figure6": "figure6",
    "run_heterogeneous_sweep": "heterogeneous_sweep",
    "run_table1": "table1",
    "run_sync_loss": "sync_loss",
    "run_sync_loss_validation": "sync_loss",
    "run_prp_costs": "prp_costs",
    "run_validation": "validation",
    "run_detector_ablation": "ablation",
    "run_solver_ablation": "ablation",
    "run_strategy_comparison": "strategy_comparison",
    "run_cascading_faults": "cascading_faults",
}

__all__ = ["ExperimentResult", "ExperimentRow", *_WRAPPERS]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: f"{__name__}.{module}"
               for name, module in {"ExperimentResult": "common",
                                    "ExperimentRow": "common",
                                    **_WRAPPERS}.items()})
