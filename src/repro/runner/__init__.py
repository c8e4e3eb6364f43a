"""Unified scenario registry and parallel experiment runner.

Every paper artefact (table, figure, section analysis) is a *scenario*: a named,
registered entry point that builds an
:class:`~repro.experiments.common.ExperimentResult`.  The subsystem splits the
experiment layer into three pieces:

``registry``
    :class:`ScenarioSpec` and the global decorator-based registry
    (``@scenario("table1")``), so new workloads plug in without touching the
    harness.
``backends``
    Pluggable execution backends: :class:`SerialBackend` runs replications in
    the driver process, :class:`ProcessPoolBackend` fans them out across worker
    processes via :mod:`concurrent.futures`.  The :class:`ExecutionContext`
    carries a backend, the replication budget and a root
    :class:`numpy.random.SeedSequence`.  Monte-Carlo work is sharded into
    fixed-size tasks whose seeds are spawned *in the driver*, so serial and
    parallel runs of the same seed are bit-for-bit identical.
``runner``
    :class:`ExperimentRunner` / :func:`run_scenario`, which hand each scenario
    an :class:`ExecutionContext`.

The runner also carries the persistence seam of the reporting layer: attach a
:class:`~repro.report.store.ResultStore` (``ExperimentRunner(store=...)``) and
every run is written through to a content-addressed artifact directory, with
cache hits on already-computed ``(scenario, params, seed, reps)`` cells served
back without re-execution (:class:`~repro.runner.runner.RunRecord` reports
which happened).

The CLI (``python -m repro``) lists scenarios (``list``), runs one (``run``),
and renders the paper artifacts plus a provenance-stamped ``REPORT.md``
(``report``).
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use so
#: that evaluating a cell (which needs only a backend and a context) loads
#: neither the scenario registry nor the runner.
_EXPORTS = {
    **dict.fromkeys(("DEFAULT_SHARD_SIZE", "ExecutionBackend",
                     "ExecutionContext", "ProcessPoolBackend",
                     "SerialBackend", "make_backend", "seed_to_int",
                     "shard_counts"), "repro.runner.backends"),
    **dict.fromkeys(("DuplicateScenarioError", "ScenarioSpec",
                     "get_scenario", "list_scenarios",
                     "load_builtin_scenarios", "register_scenario",
                     "scenario", "unregister_scenario"),
                    "repro.runner.registry"),
    **dict.fromkeys(("ExperimentRunner", "RunRecord", "run_scenario"),
                    "repro.runner.runner"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
