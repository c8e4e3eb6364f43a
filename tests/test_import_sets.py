"""Import discipline: each command loads only what its own code path runs.

Every check runs in a fresh interpreter and asserts on module *sets* in
``sys.modules``, never on how long anything takes (the ``--timing`` check
reads only the table's rows), so it is deterministic on any machine.
"""

from __future__ import annotations

import json
import os
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

    def test_cold_strategy_sweep(self, tmp_path):
        spec = write_spec(tmp_path, "sweep.json", STRATEGY_SWEEP)
        modules = modules_after(CLI, "eval", spec, "--method", "strategy",
                                "--store", str(tmp_path / "store"))
        assert loaded(modules, ("scipy.integrate",)) == []
        assert "repro.api.strategy" in modules

    def test_query_load_loads_no_numeric_stack(self, tmp_path):
        spec = write_spec(tmp_path, "cell.json", ANALYTIC_CELL)
        store = str(tmp_path / "store")
        run_python(CLI, "eval", spec, "--store", store)
        modules = modules_after(CLI, "query", "load", "--store", store,
                                "--db", str(tmp_path / "wh.sqlite"))
        assert "repro.warehouse.etl" in modules
        assert loaded(modules, ("numpy", "scipy")) == []


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

    @pytest.mark.parametrize("name", sorted(
        n for n in repro.experiments.__all__ if n.startswith("run_")))
    def test_run_wrappers_resolve(self, name):
        namespace = {}
        exec(f"from repro.experiments import {name}", namespace)
        assert callable(namespace[name])
        assert name in dir(repro.experiments)

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
