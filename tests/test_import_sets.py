"""Import discipline: each command loads only what its own code path runs.

Every check runs in a fresh interpreter and asserts on module *sets* in
``sys.modules``, never on how long anything takes (the ``--timing`` check
reads only the table's rows), so it is deterministic on any machine.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.experiments
from repro.experiments import SCENARIO_MODULES

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Never needed to import the package or to evaluate one analytic cell.
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.stats", "scipy.special",
         "asyncio", "sqlite3", "repro.service", "repro.warehouse",
         *(f"repro.experiments.{name}" for name in SCENARIO_MODULES))

ANALYTIC_CELL = {
    "system": {"kind": "heterogeneous", "n": 9, "mu_base": 1.0,
               "mu_gradient": 2.0, "lam_base": 0.5, "locality": 1.0},
    "metrics": ["mean", "variance"],
}

STRATEGY_SWEEP = {
    "system": {"kind": "strategy", "scheme": "synchronized", "n": 3,
               "mu": 1.0, "lam": 1.0, "work": 15.0, "error_rate": 0.04,
               "sync_interval": 2.0},
    "metrics": ["makespan", "slowdown", "rollbacks", "sync_loss"],
    "reps": 3, "seed": 11,
    "sweep": {"scheme": ["asynchronous", "synchronized", "pseudo"]},
}

#: The scenarios registered before registration became import-by-name.
BUILTIN_SCENARIOS = [
    "cascading_faults", "detector_ablation", "evaluate", "figure5",
    "figure5_full_chain", "figure6", "heterogeneous_sweep", "prp_costs",
    "solver_ablation", "strategy_comparison", "sync_loss",
    "sync_loss_validation", "table1", "validation",
]


def run_python(code: str, *args: str) -> str:
    """Run *code* in a fresh interpreter on this source tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code: str, *args: str) -> set:
    """``sys.modules`` after running *code* in a fresh interpreter."""
    out = run_python(code + "\nimport json, sys\n"
                     "print(json.dumps(sorted(sys.modules)))\n", *args)
    return set(json.loads(out.splitlines()[-1]))


def loaded(modules: set, prefixes) -> list:
    """The members of *modules* that are, or sit under, any of *prefixes*."""
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def write_spec(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CLI = """
import sys
import repro.__main__
assert repro.__main__.main(sys.argv[1:]) == 0
"""


class TestImportSets:
    def test_import_repro_is_lean(self):
        modules = modules_after("import repro")
        assert loaded(modules, HEAVY) == []
        assert loaded(modules, ("numpy", "scipy")) == []

    def test_one_cell_analytic_eval(self, tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        modules = modules_after(CLI, "eval", spec)
        assert loaded(modules, HEAVY) == []
        assert "repro.api.evaluators" in modules
        # The strategy engine registers on first use: the recovery runtimes,
        # the event kernel and the fault models stay out of an analytic cell.
        assert loaded(modules, ("repro.api.strategy", "repro.recovery",
                                "repro.sim", "repro.faults")) == []

    def test_one_cell_analytic_eval_loads_no_scipy(self, tmp_path):
        """A dense cell's LU runs on LAPACK bound from scipy's OpenBLAS
        file; no scipy module is imported for it."""
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        modules = modules_after(CLI, "eval", spec)
        assert "repro.util.blas" in modules
        assert loaded(modules, ("scipy",)) == []

    def test_cold_strategy_sweep(self, tmp_path):
        spec = write_spec(tmp_path, "sweep.json", STRATEGY_SWEEP)
        modules = modules_after(CLI, "eval", spec, "--method", "strategy",
                                "--store", str(tmp_path / "store"))
        assert loaded(modules, ("scipy.integrate",)) == []
        # Stochastic cells run through the executor, not the runner's
        # scenario registry, so no scenario module loads.
        assert loaded(modules, [f"repro.experiments.{name}"
                                for name in SCENARIO_MODULES]) == []
        assert "repro.api.strategy" in modules

    def test_closed_form_strategy_cell_loads_no_markov_stack(self, tmp_path):
        """A synchronized ``sync_loss`` cell is Section 3's closed form: it
        loads the loss model, never the chain stack or scipy."""
        spec = write_spec(tmp_path, "cell.json", {
            "system": STRATEGY_SWEEP["system"], "metrics": ["sync_loss"]})
        modules = modules_after(CLI, "eval", spec, "--method", "analytic")
        assert "repro.analysis.synchronized_loss" in modules
        assert loaded(modules, ("scipy", "repro.markov",
                                "repro.analysis.rollback_distance")) == []

    def test_mc_cell_loads_no_solver_stack(self, tmp_path):
        """An ``mc`` cell samples the chain: it loads ``montecarlo`` and
        neither the transient operators nor the LAPACK binding."""
        spec = write_spec(tmp_path, "cell.json", {
            "system": {"kind": "symmetric", "n": 5, "mu": 1.0, "lam": 0.5},
            "metrics": ["mean"], "seed": 7, "reps": 500})
        modules = modules_after(CLI, "eval", spec, "--method", "mc")
        assert "repro.markov.montecarlo" in modules
        assert loaded(modules, ("repro.util.blas",
                                "repro.markov.operators")) == []

    def test_query_load_loads_no_numeric_stack(self, tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        store = str(tmp_path / "store")
        run_python(CLI, "eval", spec, "--store", store)
        modules = modules_after(CLI, "query", "load", "--store", store,
                                "--db", str(tmp_path / "wh.sqlite"))
        assert "repro.warehouse.etl" in modules
        assert loaded(modules, ("numpy", "scipy")) == []


#: Not on a one-cell dense analytic cell's path: the history and rollback
#: model, the sampler, the split and lumped chains, the process models and
#: the trace replayer, the scenario registry and runner.
OFF_DENSE_PATH = ("repro.core.history", "repro.core.rollback",
                  "repro.core.recovery_line",
                  "repro.core.intervals", "repro.core.types",
                  "repro.markov.montecarlo", "repro.markov.split_chain",
                  "repro.markov.dtmc", "repro.markov.simplified",
                  "repro.markov.density", "repro.processes",
                  "repro.workloads", "repro.runner.registry",
                  "repro.runner.runner")

#: Every ``repro`` module ``list`` loads: it imports the scenario modules to
#: register them, and they import their engines where they compute.
LIST_MODULES = {
    "repro", "repro.__main__", "repro._lazy", "repro.analysis",
    "repro.analysis.order_statistics", "repro.analysis.prp_overhead",
    "repro.api", "repro.api.evaluation", "repro.api.evaluators",
    "repro.api.execute", "repro.api.facade", "repro.api.spec", "repro.bench",
    "repro.core", "repro.core.parameters", "repro.experiments",
    *(f"repro.experiments.{name}" for name in SCENARIO_MODULES),
    "repro.experiments.common", "repro.report", "repro.report.store",
    "repro.runner", "repro.runner.backends", "repro.runner.registry",
    "repro.util", "repro.util.tables",
    "repro.util.validation", "repro.workloads", "repro.workloads.generators",
}


class TestOnlyThePath:
    def test_one_cell_dense_eval_loads_at_most_30_repro_modules(self,
                                                                 tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        modules = modules_after(CLI, "eval", spec)
        assert len(loaded(modules, ("repro",))) <= 30
        assert loaded(modules, OFF_DENSE_PATH) == []

    def test_list_loads_its_pinned_set(self):
        modules = modules_after(CLI, "list")
        assert set(loaded(modules, ("repro",))) == LIST_MODULES
        assert loaded(modules, ("scipy", "repro.markov", "repro.recovery",
                                "repro.sim", "repro.processes")) == []

    def test_service_import_loads_no_scipy(self):
        """The service preloads the engines its pool workers run, but no
        scipy: a cell whose path calls scipy imports it when planned."""
        modules = modules_after("import repro.service")
        assert "repro.markov.recovery_line_interval" in modules
        assert loaded(modules, ("scipy",)) == []

    def test_scipy_cells_on_a_warm_pool_match_direct_evaluation(self):
        """Workers forked before scipy was loaded import it on their first
        ``pdf`` or sparse cell, and serve the bits ``repro.evaluate`` does."""
        out = run_python("""
            import asyncio, json, sys
            from repro.api import StudySpec, evaluate
            from repro.service import EvaluationService

            def cell(**extra):
                return {"system": {"kind": "heterogeneous", "n": 5,
                                   "mu_base": 1.0, "mu_gradient": 2.0,
                                   "lam_base": 0.5, "locality": 1.0},
                        "sweep": {"lam_base": [0.5, 0.7]}, **extra}

            def hexed(value):
                if isinstance(value, float):
                    return value.hex()
                if isinstance(value, dict):
                    return {k: hexed(v) for k, v in value.items()}
                if isinstance(value, (list, tuple)):
                    return [hexed(v) for v in value]
                return value

            async def main():
                service = EvaluationService(backend="process", workers=2)
                try:
                    await service.submit({
                        "system": {"kind": "symmetric", "n": 4, "mu": 1.0,
                                   "lam": 0.5},
                        "metrics": ["mean"], "seed": 7, "reps": 4000,
                        "sweep": {"lam": [0.5, 0.6]}}, "mc")
                    assert service.backend._pool is not None
                    forked_without_scipy = not any(
                        m.startswith("scipy") for m in sys.modules)
                    outcomes = []
                    for extra in ({"metrics": ["mean", "pdf"],
                                   "times": [0.5, 1.0, 1.5]},
                                  {"metrics": ["mean", "variance"],
                                   "options": {"backend": "sparse"}}):
                        result = await service.submit(cell(**extra),
                                                      "analytic")
                        outcomes.extend(result.cells)
                finally:
                    await service.drain()
                    service.backend.close()
                return forked_without_scipy, outcomes

            forked_without_scipy, outcomes = asyncio.run(main())
            pairs = [(hexed(o.evaluation.to_dict()),
                      hexed(evaluate(o.spec, method="analytic").to_dict()))
                     for o in outcomes]
            print(json.dumps({"forked_without_scipy": forked_without_scipy,
                              "sources": [o.source for o in outcomes],
                              "backends": [o.evaluation.backend
                                           for o in outcomes],
                              "pairs": pairs}))
        """)
        report = json.loads(out.splitlines()[-1])
        assert report["forked_without_scipy"]
        assert report["sources"] == ["computed"] * 4
        assert report["backends"][2:] == ["sparse", "sparse"]
        for served, direct in report["pairs"]:
            assert served == direct


class TestServiceWarm:
    def test_pool_workers_import_nothing_new(self):
        """Importing the service loads the analytic and mc engines, and a
        process-pool batch makes its workers import no module the parent
        lacks (otherwise the service's first batches would pay for it in
        every worker, and again whenever a broken pool is rebuilt)."""
        out = run_python("""
            import json, sys
            import repro.service
            from repro.api import StudySpec, SystemSpec
            from repro.runner.backends import ProcessPoolBackend
            from repro.service.batching import BatchCell, execute_cells

            warm = sorted(sys.modules)

            def probe(payload):
                func, task = payload
                return func(task), sorted(sys.modules)

            class ProbeBackend(ProcessPoolBackend):
                worker_modules = set()

                def map(self, func, tasks):
                    pairs = super().map(probe, [(func, t) for t in tasks])
                    for _result, modules in pairs:
                        self.worker_modules.update(modules)
                    return [result for result, _modules in pairs]

            def analytic(lam_base):
                return StudySpec.from_dict({
                    "system": {"kind": "heterogeneous", "n": 9,
                               "mu_base": 1.0, "mu_gradient": 2.0,
                               "lam_base": lam_base, "locality": 1.0},
                    "metrics": ["mean", "variance"]})

            mc = StudySpec(system=SystemSpec.symmetric(4, 1.0, 0.5),
                           metrics=("mean",), seed=7, reps=4000)
            backend = ProbeBackend(workers=2)
            outcomes, dispatches = execute_cells(backend, [
                BatchCell(analytic(0.5), "analytic"),
                BatchCell(analytic(0.6), "analytic"),
                BatchCell(mc, "mc")])
            assert dispatches == 2
            assert not any(isinstance(o, Exception) for o in outcomes)
            print(json.dumps({
                "warm": warm,
                "worker_only": sorted(backend.worker_modules
                                      - set(sys.modules))}))
        """)
        report = json.loads(out.splitlines()[-1])
        for engine in ("repro.api.evaluators", "repro.markov.montecarlo",
                       "repro.markov.recovery_line_interval"):
            assert engine in report["warm"]
        assert report["worker_only"] == []


class TestRegistryAndCompat:
    def test_builtin_scenario_set_is_unchanged(self):
        out = run_python("""
            from repro.runner import list_scenarios, load_builtin_scenarios
            load_builtin_scenarios()
            print(",".join(s.name for s in
                           list_scenarios(include_internal=True)))
        """)
        assert out.split()[-1].split(",") == BUILTIN_SCENARIOS

    def test_experiments_export_only_the_result_containers(self):
        assert repro.experiments.__all__ == ["ExperimentResult",
                                             "ExperimentRow"]
        for name in repro.experiments.__all__:
            namespace = {}
            exec(f"from repro.experiments import {name}", namespace)
            assert callable(namespace[name])
            assert name in dir(repro.experiments)

    @pytest.mark.parametrize("name", sorted(
        set(BUILTIN_SCENARIOS) - {"evaluate", "strategy_comparison"}))
    def test_scenario_is_the_only_entry_point(self, name):
        """Each paper artifact runs through ``run_scenario`` alone: neither
        the package nor the scenario's module keeps a ``run_<name>``."""
        from repro.runner import get_scenario, load_builtin_scenarios
        load_builtin_scenarios()
        module = sys.modules[get_scenario(name).func.__module__]
        assert module.__name__.startswith("repro.experiments.")
        assert not hasattr(module, f"run_{name}")
        with pytest.raises(ImportError):
            exec(f"from repro.experiments import run_{name}", {})

    def test_strategy_comparison_is_the_only_run_function(self):
        root = pathlib.Path(SRC, "repro", "experiments")
        defined = sorted(
            node.name for path in root.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("run_"))
        assert defined == ["run_strategy_comparison"]

    def test_heterogeneous_parameters_alias_is_gone(self):
        import repro.experiments.heterogeneous_sweep as sweep
        import repro.workloads.generators as generators
        assert not hasattr(sweep, "heterogeneous_parameters")
        assert not hasattr(generators, "heterogeneous_parameters")

    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
            assert name in dir(repro)
        with pytest.raises(AttributeError):
            repro.not_a_public_name  # noqa: B018


class TestTimingImportRow:
    def test_import_row_is_part_of_the_total(self, tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-m", "repro", "eval", spec,
                               "--timing"], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        table = proc.stdout[proc.stdout.index("[timing]"):].splitlines()[1:]
        seconds = {line.split()[0]: float(line.split()[1].rstrip("s"))
                   for line in table}
        assert list(seconds)[0] == "import"
        assert list(seconds)[-1] == "total"
        assert seconds["import"] > 0.0
        parts = sum(v for k, v in seconds.items() if k != "total")
        assert parts == pytest.approx(seconds["total"], abs=0.01)

    def test_timing_names_the_lapack_it_ran_on(self, tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        out = run_python(CLI, "eval", spec, "--timing")
        line = out[:out.index("[timing]")].splitlines()[-1]
        assert line.startswith("[lapack] binding=")
        assert "threads=" in line and "config=" in line


def _subpackage(module: str) -> str:
    """``repro.<first component>`` of a dotted module name."""
    return ".".join(module.split(".")[:2])


class TestPrivateNames:
    def test_no_private_name_crosses_a_subpackage(self):
        """A leading underscore marks a name its subpackage may change at
        will, so no other subpackage may import it."""
        root = pathlib.Path(SRC)
        crossings = []
        for path in sorted((root / "repro").rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("").parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or node.level \
                        or not (node.module or "").startswith("repro"):
                    continue
                if _subpackage(node.module) == _subpackage(module):
                    continue
                crossings.extend(
                    f"{module}: from {node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__"))
        assert crossings == []


#: What a run that computes nothing (every cell a store hit) never loads: the
#: numeric stack, every engine's model code and the process-pool machinery.
NO_ENGINE = ("numpy", "scipy", "repro.markov", "repro.core", "repro.recovery",
             "repro.sim", "multiprocessing", "concurrent.futures.process")

ANALYTIC_SWEEP = {**ANALYTIC_CELL, "sweep": {"lam_base": [0.3, 0.5, 0.7]}}


def eval_with_modules(*args: str):
    """``(stdout, sys.modules)`` of one ``eval`` in a fresh interpreter."""
    out = run_python(CLI + "\nimport json, sys\n"
                     "print(json.dumps(sorted(sys.modules)))\n", "eval", *args)
    lines = out.splitlines()
    return "\n".join(lines[:-1]), set(json.loads(lines[-1]))


class TestWarmStore:
    """A store hit loads no engine: only planning a cell loads one."""

    @pytest.mark.parametrize("payload, cells", [(ANALYTIC_SWEEP, 3),
                                                (STRATEGY_SWEEP, 3)],
                             ids=["analytic", "strategy"])
    def test_warm_sweep_loads_no_engine(self, tmp_path, payload, cells):
        spec = write_spec(tmp_path, "sweep.json", payload)
        store = str(tmp_path / "store")
        run_python(CLI, "eval", spec, "--store", store)
        out, modules = eval_with_modules(spec, "--store", store)
        assert f"{cells} served from the store" in out
        assert loaded(modules, NO_ENGINE) == []

    def test_cold_strategy_sweep_loads_no_scipy(self, tmp_path):
        spec = write_spec(tmp_path, "sweep.json", STRATEGY_SWEEP)
        out, modules = eval_with_modules(spec, "--store",
                                         str(tmp_path / "store"))
        assert "0 served from the store" in out
        assert "repro.recovery" in modules
        assert loaded(modules, ("scipy", "repro.markov")) == []


class TestEngineLoadsWhenPlanned:
    def test_pool_workers_import_nothing_the_driver_lacks(self):
        """The executor loads each engine while it plans, before the first
        map starts the pool, so a driver that imported only ``repro.api``
        forks workers that import nothing new for any engine."""
        out = run_python("""
            import json, sys
            import repro.api
            from repro.api import StudySpec, SystemSpec
            from repro.api.execute import BatchCell, execute_cells
            from repro.runner.backends import ProcessPoolBackend

            def probe(payload):
                func, task = payload
                return func(task), sorted(sys.modules)

            class ProbeBackend(ProcessPoolBackend):
                worker_modules = set()

                def map(self, func, tasks):
                    pairs = super().map(probe, [(func, t) for t in tasks])
                    for _result, modules in pairs:
                        self.worker_modules.update(modules)
                    return [result for result, _modules in pairs]

            def analytic(lam_base):
                return StudySpec.from_dict({
                    "system": {"kind": "heterogeneous", "n": 9,
                               "mu_base": 1.0, "mu_gradient": 2.0,
                               "lam_base": lam_base, "locality": 1.0},
                    "metrics": ["mean", "variance"]})

            def sampled(reps):
                return StudySpec(system=SystemSpec.symmetric(3, 1.0, 0.5),
                                 metrics=("mean",), seed=7, reps=reps)

            strategy = StudySpec(
                system=SystemSpec.strategy("pseudo", 3, mu=1.0, lam=1.0,
                                           work=10.0, error_rate=0.04),
                metrics=("makespan",), seed=11, reps=16)
            before = set(sys.modules)
            backend = ProbeBackend(workers=2)
            try:
                outcomes, dispatches = execute_cells(backend, [
                    BatchCell(analytic(0.5), "analytic"),
                    BatchCell(analytic(0.6), "analytic"),
                    BatchCell(sampled(4000), "mc"),
                    BatchCell(sampled(2200), "des"),
                    BatchCell(strategy, "strategy")])
            finally:
                backend.close()
            assert dispatches == 3
            assert not any(isinstance(o, Exception) for o in outcomes), \\
                outcomes
            print(json.dumps({
                "driver_loaded": sorted(set(sys.modules) - before),
                "worker_only": sorted(backend.worker_modules
                                      - set(sys.modules))}))
        """)
        report = json.loads(out.splitlines()[-1])
        for engine in ("repro.markov.recovery_line_interval",
                       "repro.markov.montecarlo", "repro.sim.interval_sampler",
                       "repro.recovery"):
            assert engine in report["driver_loaded"]
        assert report["worker_only"] == []

    def test_engine_modules_load_in_the_import_phase(self, tmp_path):
        """``--timing`` stays honest: a cold analytic and a cold strategy
        ``eval`` load their engines inside the ``import`` phase, not in
        ``assembly``, ``solve`` or ``sim``."""
        analytic = write_spec(tmp_path, "analytic.json", ANALYTIC_SWEEP)
        strategy = write_spec(tmp_path, "strategy.json", STRATEGY_SWEEP)
        phases, modules = import_phases(analytic, strategy)
        engines = ("numpy", "repro.util.blas",
                   "repro.markov.recovery_line_interval", "repro.core",
                   "repro.recovery", "repro.sim.engine",
                   "repro.workloads.generators")
        for module in engines:
            assert phases[module] == ["import"], module
        assert loaded(modules, ("scipy",)) == []

    @pytest.mark.parametrize("extra, scipy_modules", [
        ({"options": {"backend": "sparse"}},
         ("scipy.sparse", "scipy.sparse.linalg")),
        ({"metrics": ["mean", "pdf"], "times": [0.5, 1.0, 1.5]},
         ("scipy.linalg",)),
    ], ids=["sparse-backend", "pdf"])
    def test_scipy_loads_in_the_import_phase_where_a_path_calls_it(
            self, tmp_path, extra, scipy_modules):
        """A sparse-backend cell loads ``scipy.sparse`` and a ``pdf`` cell
        ``scipy.linalg`` (for ``expm``), both while the executor plans."""
        spec = write_spec(tmp_path, "cell.json", {**ANALYTIC_CELL, **extra})
        phases, _modules = import_phases(spec)
        for module in scipy_modules:
            assert phases[module] == ["import"], module


#: Runs ``eval --timing`` on each spec file in argv, recording the phase that
#: was active when each module was first looked up.
PHASE_SPY = """
import contextlib, json, sys
import repro.__main__
from repro.bench import PhaseTimer

active = []
timed = PhaseTimer.phase

@contextlib.contextmanager
def tracked(self, name):
    active.append(name)
    try:
        with timed(self, name):
            yield
    finally:
        active.pop()

PhaseTimer.phase = tracked
phases = {}

class Spy:
    def find_spec(self, name, path=None, target=None):
        phases.setdefault(name, list(active))
        return None

sys.meta_path.insert(0, Spy())
for spec in sys.argv[1:]:
    assert repro.__main__.main(["eval", spec, "--timing"]) == 0
print(json.dumps([phases, sorted(sys.modules)]))
"""


def import_phases(*specs: str):
    """``(first-lookup phase per module, sys.modules)`` after evaluating
    *specs* with ``--timing`` in one fresh interpreter."""
    phases, modules = json.loads(run_python(PHASE_SPY, *specs)
                                 .splitlines()[-1])
    return phases, set(modules)
