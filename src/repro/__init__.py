"""repro — reproduction of Shin & Lee (1983), *Analysis of Backward Error Recovery
for Concurrent Processes with Recovery Blocks* (ICPP 1983).

The package provides:

* a domain model of concurrent processes with recovery blocks
  (:mod:`repro.core`);
* a discrete-event simulation substrate and executable recovery-block runtimes —
  asynchronous, synchronized (conversation), and pseudo-recovery-point based
  (:mod:`repro.sim`, :mod:`repro.processes`, :mod:`repro.recovery`,
  :mod:`repro.faults`, :mod:`repro.workloads`);
* the paper's probabilistic models: the Markov chain for asynchronous recovery
  blocks, the synchronized-loss formula, and the PRP overhead analysis
  (:mod:`repro.markov`, :mod:`repro.analysis`);
* an experiment harness regenerating every table and figure of the paper
  (:mod:`repro.experiments`);
* a unified evaluation facade: declarative :class:`~repro.api.StudySpec`\\ s
  evaluated through one :func:`repro.evaluate` entry point across the
  analytic, Monte-Carlo and discrete-event engines, with auto method
  selection, sweeps, and store-backed caching — ``python -m repro eval``
  (:mod:`repro.api`);
* a scenario registry and parallel experiment runner with serial/process-pool
  backends and a CLI — ``python -m repro list`` / ``python -m repro run <name>``
  (:mod:`repro.runner`);
* a content-addressed result store and paper-figure report pipeline —
  ``python -m repro report --all`` renders Figure 5, Figure 6, Table 1 and the
  heterogeneous sweep into a provenance-stamped ``REPORT.md``
  (:mod:`repro.report`);
* an async multi-tenant evaluation service — single-flight dedup of
  identical in-flight cells, a hot-cell LRU, admission batching into one
  backend fan-out, and the CLI's own result store — ``python -m repro serve``
  (:mod:`repro.service`).

Quickstart
----------
>>> from repro import SystemParameters, RecoveryLineIntervalModel
>>> params = SystemParameters.three_process(mu=(1.0, 1.0, 1.0),
...                                         lam_12_23_31=(1.0, 1.0, 1.0))
>>> model = RecoveryLineIntervalModel(params)
>>> round(model.mean_interval(), 3)
2.5

Or, through the facade:

>>> import repro
>>> spec = repro.StudySpec(system=repro.SystemSpec.table1_case(1),
...                        metrics=("mean",),
...                        options={"prefer_simplified": False})
>>> round(repro.evaluate(spec, method="analytic").mean, 3)
2.5
"""

import time as _time

#: When this package began importing; ``python -m repro eval --timing``
#: reports the time from here to ``main()`` as its ``import`` row.
_IMPORT_STARTED = _time.perf_counter()

#: The package version.  It is part of every
#: :class:`~repro.report.store.ResultStore` content address, so a version
#: bump invalidates cached cells: results of different code never shadow
#: each other.
__version__ = "1.1.0"

from repro._lazy import lazy_exports  # noqa: E402

#: Public name -> the subpackage that defines it.  Names resolve on first use,
#: so ``import repro`` loads no numeric stack.
_EXPORTS = {
    **dict.fromkeys(("Evaluation", "StudyResult", "StudySpec", "SystemSpec",
                     "evaluate"), "repro.api"),
    **dict.fromkeys(("CheckpointKind", "HistoryDiagram",
                     "Interaction", "RecoveryLine", "RecoveryPoint",
                     "SystemParameters", "extract_intervals",
                     "find_recovery_lines", "propagate_rollback"),
                    "repro.core"),
    **dict.fromkeys(("ModelSimulator", "PhaseType",
                     "RecoveryLineIntervalModel", "SimplifiedChain"),
                    "repro.markov"),
    **dict.fromkeys(("ResultStore", "generate_report"),
                    "repro.report"),
    **dict.fromkeys(("ExperimentRunner", "ProcessPoolBackend", "RunRecord",
                     "ScenarioSpec", "SerialBackend", "list_scenarios",
                     "run_scenario", "scenario"), "repro.runner"),
    **dict.fromkeys(("EvaluationService", "ServiceClient"), "repro.service"),
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
