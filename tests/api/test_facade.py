"""The facade: store round trips, sweeps, in-context layout, CLI faces."""

import json
import os

import numpy as np
import pytest

from repro.api import (
    Evaluation,
    StudySpec,
    SystemSpec,
    evaluate,
    evaluate_in_context,
    evaluate_record,
)
from repro.report import ResultStore
from repro.runner import ExecutionContext, ExperimentRunner


def spec_n4(**overrides):
    fields = dict(system=SystemSpec.symmetric(4, 1.0, 1.0),
                  metrics=("mean", "std"), reps=1500, seed=11)
    fields.update(overrides)
    return StudySpec(**fields)


class TestEvaluationRoundTrip:
    def test_experiment_result_encoding_is_exact(self):
        evaluation = evaluate(spec_n4(metrics=("mean", "std", "rp_counts",
                                               "completion_probabilities",
                                               "cdf"),
                                      times=(0.5, 1.0)), method="mc")
        rebuilt = Evaluation.from_experiment_result(
            evaluation.to_experiment_result())
        assert rebuilt.to_dict() == evaluation.to_dict()
        assert rebuilt == evaluation

    def test_dict_round_trip(self):
        evaluation = evaluate(spec_n4(), method="analytic")
        assert Evaluation.from_dict(
            json.loads(json.dumps(evaluation.to_dict()))) == evaluation

    def test_mean_present_even_when_not_requested(self):
        for method in ("analytic", "mc"):
            evaluation = evaluate(spec_n4(metrics=("rp_counts",), reps=300),
                                  method=method)
            assert evaluation.mean > 0.0, method


class TestStoreIntegration:
    def test_cache_hit_reproduces_evaluation(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = spec_n4()
        fresh = evaluate_record(spec, method="mc", store=store)
        again = evaluate_record(spec, method="mc", store=store)
        assert not fresh.cells[0].cached and again.cells[0].cached
        assert again.cells[0].evaluation == fresh.cells[0].evaluation

    def test_cell_key_is_canonical_key(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = spec_n4()
        record = evaluate_record(spec, method="mc", store=store)
        assert record.cells[0].key == spec.canonical_key("mc")
        assert store.get(spec.canonical_key("mc")) is not None

    def test_auto_and_explicit_share_a_cell(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        evaluate(spec_n4(), method="auto", store=store)   # resolves analytic
        again = evaluate_record(spec_n4(), method="analytic", store=store)
        assert again.cells[0].cached

    def test_seedless_stochastic_specs_bypass_the_store(self, tmp_path):
        # seed=None means fresh entropy for a sampler: never cached.
        store = ResultStore(str(tmp_path / "store"))
        spec = spec_n4(seed=None, reps=300)
        record = evaluate_record(spec, method="mc", store=store)
        assert record.cells[0].key is None
        assert len(store) == 0

    def test_seedless_analytic_specs_do_cache(self, tmp_path):
        # ... but a deterministic engine's result does not depend on the
        # seed, so seedless analytic cells cache under canonical_key.
        store = ResultStore(str(tmp_path / "store"))
        spec = spec_n4(seed=None)
        fresh = evaluate_record(spec, method="analytic", store=store)
        assert not fresh.cells[0].cached
        assert fresh.cells[0].key == spec.canonical_key("analytic")
        again = evaluate_record(spec, method="analytic", store=store)
        assert again.cells[0].cached
        assert again.cells[0].evaluation == fresh.cells[0].evaluation


class TestSweeps:
    def test_sweep_evaluates_every_cell(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        sweep = spec_n4(sweep={"lam": (0.5, 1.0), "n": (3, 4)})
        result = evaluate(sweep, method="analytic", store=store)
        assert len(result.cells) == 4
        table = result.to_experiment_result()
        assert len(table.rows) == 4
        assert "lam=0.5, n=3 [analytic]" in [r.label for r in table.rows]
        # resume: everything cached on the second pass
        assert evaluate(sweep, method="analytic",
                        store=store).cache_hits == 4

    def test_analytic_sweep_identical_across_backends(self):
        sweep = spec_n4(metrics=("mean",), sweep={"lam": (0.5, 1.0, 2.0)})
        serial = evaluate(sweep, method="analytic")
        pooled = evaluate(sweep, method="analytic", backend="process",
                          workers=2)
        assert [c.evaluation.to_dict() for c in serial.cells] == \
            [c.evaluation.to_dict() for c in pooled.cells]

    def test_cli_eval_reports_overflow_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = self.write_overflow_spec(tmp_path)
        with pytest.raises(SystemExit, match="evaluation failed"):
            main(["eval", spec_path, "--method", "analytic"])
        capsys.readouterr()

    @staticmethod
    def write_overflow_spec(tmp_path):
        payload = {"system": {"kind": "symmetric", "n": 30, "mu": 1.0,
                              "lam": 0.5}, "metrics": ["mean"]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_sweep_mean_matches_single_cells(self):
        sweep = spec_n4(metrics=("mean",), sweep={"lam": (0.5, 2.0)})
        result = evaluate(sweep, method="analytic")
        singles = [evaluate(spec_n4(metrics=("mean",),
                                    system=SystemSpec.symmetric(4, 1.0, lam)),
                            method="analytic").mean
                   for lam in (0.5, 2.0)]
        assert [c.evaluation.mean for c in result.cells] == singles


class TestInContextLayout:
    def test_matches_legacy_sampler_bit_for_bit(self):
        """The facade's mc task/seed layout is the pre-facade sampler's."""
        from repro.experiments.sampling import sample_interval_cases
        cases = [1, 2]
        legacy_ctx = ExecutionContext(seed=77, reps=None)
        legacy = sample_interval_cases(legacy_ctx, cases, 3000)

        facade_ctx = ExecutionContext(seed=77, reps=None)
        specs = [StudySpec(system=SystemSpec.table1_case(case),
                           metrics=("mean",), reps=3000) for case in cases]
        evaluations = evaluate_in_context(facade_ctx, specs, method="mc")
        for case, evaluation in zip(cases, evaluations):
            assert evaluation.mean == legacy[case].mean_interval()
            assert evaluation.stderr == legacy[case].interval_stderr()

    def test_mixed_engines_rejected(self):
        ctx = ExecutionContext(seed=1)
        specs = [StudySpec(system=SystemSpec.symmetric(3, 1.0, 1.0))]
        with pytest.raises(KeyError):
            evaluate_in_context(ctx, specs, method="nonsense")

    def test_deterministic_cells_fan_out(self):
        ctx = ExecutionContext(seed=1)
        specs = [StudySpec(system=SystemSpec.symmetric(n, 1.0, 1.0),
                           metrics=("mean",)) for n in (2, 3, 4)]
        means = [e.mean for e in evaluate_in_context(ctx, specs, "analytic")]
        assert means == sorted(means)  # E[X] grows with n


class TestEvaluateScenarioRegistration:
    def test_registered_but_internal(self):
        from repro.runner import (get_scenario, list_scenarios,
                                  load_builtin_scenarios)
        load_builtin_scenarios()
        spec = get_scenario("evaluate")
        assert spec.default_reps is None
        assert spec.internal
        # Generic enumeration must not sweep it up ...
        assert "evaluate" not in [s.name for s in list_scenarios()]
        # ... but it stays addressable when asked for explicitly.
        assert "evaluate" in [s.name
                              for s in list_scenarios(include_internal=True)]

    def test_runner_can_run_it_directly(self):
        runner = ExperimentRunner(seed=5)
        result = runner.run("evaluate",
                            spec=spec_n4(metrics=("mean",), seed=None,
                                         reps=None).to_dict(),
                            method="analytic")
        evaluation = Evaluation.from_experiment_result(result)
        assert evaluation.method == "analytic"

    def test_parameterless_invocation_is_informative(self):
        runner = ExperimentRunner(seed=5)
        with pytest.raises(ValueError, match="needs a StudySpec"):
            runner.run("evaluate")

    def test_payload_embedding_seed_or_reps_is_rejected(self):
        # The runner-level seed/reps slots key the cell; a payload carrying
        # its own would store self-contradictory provenance.
        runner = ExperimentRunner(seed=5)
        with pytest.raises(ValueError, match="must not embed"):
            runner.run("evaluate", spec=spec_n4().to_dict(),
                       method="analytic")

    def test_payload_embedding_sweep_is_rejected(self):
        # A sweep would silently collapse to its base cell here; the facade
        # expands sweeps before dispatch, so direct payloads must not carry
        # one.
        runner = ExperimentRunner(seed=5)
        payload = spec_n4(seed=None, reps=None,
                          sweep={"lam": (0.5, 1.0)}).to_dict()
        with pytest.raises(ValueError, match="must not embed"):
            runner.run("evaluate", spec=payload, method="analytic")

    def test_deterministic_same_identity_cells_computed_once(self, tmp_path,
                                                             monkeypatch):
        # A reps axis is identity-irrelevant to the analytic engine: all
        # three cells share one store cell and one solve.
        store = ResultStore(str(tmp_path / "store"))
        puts = []
        real_put = ResultStore.put

        def spy(self, *args, **kwargs):
            puts.append(args[0])
            return real_put(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "put", spy)
        sweep = spec_n4(metrics=("mean",), sweep={"reps": (500, 1000, 2000)})
        result = evaluate(sweep, method="analytic", store=store)
        assert len(result.cells) == 3
        assert len({c.key for c in result.cells}) == 1
        assert len(store) == 1
        assert len({c.evaluation.mean for c in result.cells}) == 1
        # a single put proves the solve (and write) happened once
        assert len(puts) == 1

    def test_report_all_excludes_it(self):
        from repro.report.pipeline import default_scenario_order
        from repro.runner import list_scenarios, load_builtin_scenarios
        load_builtin_scenarios()
        names = default_scenario_order([s.name for s in list_scenarios()])
        assert "evaluate" not in names

    def test_report_rejects_it_explicitly(self, tmp_path):
        from repro.report import generate_report
        with pytest.raises(ValueError, match="internal"):
            generate_report(["evaluate"], out_dir=str(tmp_path))

    def test_cli_run_and_report_reject_it_cleanly(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit, match="internal infrastructure"):
            main(["run", "evaluate"])
        with pytest.raises(SystemExit, match="internal infrastructure"):
            main(["report", "evaluate"])
        capsys.readouterr()

    def test_cli_list_hides_it(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        assert "evaluate" not in capsys.readouterr().out


class TestRowErrorMessages:
    def test_row_get_lists_columns(self):
        evaluation = evaluate(spec_n4(metrics=("mean",)), method="analytic")
        result = evaluation.to_experiment_result()
        with pytest.raises(KeyError, match="available columns: value"):
            result.rows[0].get("not-a-column")

    def test_result_row_lists_labels(self):
        evaluation = evaluate(spec_n4(metrics=("mean",)), method="analytic")
        result = evaluation.to_experiment_result()
        with pytest.raises(KeyError, match="known labels: 'mean'"):
            result.row("not-a-row")


class TestCli:
    def write_spec(self, tmp_path, payload=None):
        payload = payload or {
            "system": {"kind": "symmetric", "n": 4, "mu": 1.0, "lam": 1.0},
            "metrics": ["mean", "std"], "reps": 800, "seed": 9,
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_eval_smoke_and_cache(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = self.write_spec(tmp_path)
        store = str(tmp_path / "store")
        assert main(["eval", spec_path, "--method", "mc",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "0 served from the store" in first
        assert main(["eval", spec_path, "--method", "mc",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        assert "1 served from the store" in second

    def test_eval_output_envelope(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = self.write_spec(tmp_path)
        out = tmp_path / "evaluation.json"
        assert main(["eval", spec_path, "-o", str(out)]) == 0
        envelope = json.loads(out.read_text(encoding="utf-8"))
        assert envelope["method"] == "auto"
        assert envelope["evaluations"][0]["method"] == "analytic"
        capsys.readouterr()

    def test_eval_sweep_renders_table(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = self.write_spec(tmp_path, {
            "system": {"kind": "symmetric", "n": 3, "mu": 1.0, "lam": 1.0},
            "metrics": ["mean"], "seed": 2,
            "sweep": {"lam": [0.5, 1.0]},
        })
        assert main(["eval", spec_path]) == 0
        out = capsys.readouterr().out
        assert "lam=0.5 [analytic]" in out and "2 cell(s)" in out

    def test_eval_rejects_bad_spec(self, tmp_path, capsys):
        from repro.__main__ import main
        spec_path = self.write_spec(tmp_path, {"metrics": ["mean"]})
        with pytest.raises(SystemExit, match="bad StudySpec"):
            main(["eval", spec_path])

    def test_eval_missing_file(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit, match="not found"):
            main(["eval", "/nonexistent/spec.json"])

    def test_eval_override_conflicting_with_sweep_axis_rejected(self, tmp_path):
        from repro.__main__ import main
        spec_path = self.write_spec(tmp_path, {
            "system": {"kind": "symmetric", "n": 3, "mu": 1.0, "lam": 1.0},
            "metrics": ["mean"], "seed": 2,
            "sweep": {"reps": [500, 1000]},
        })
        with pytest.raises(SystemExit, match="sweep axis"):
            main(["eval", spec_path, "--method", "mc", "--reps", "50"])

    def test_run_params_file(self, tmp_path, capsys):
        from repro.__main__ import main
        params = tmp_path / "kwargs.json"
        params.write_text(json.dumps({"n_values": [2, 3],
                                      "rho_values": [1.0]}),
                          encoding="utf-8")
        assert main(["run", "figure5", "--params", str(params)]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out and "n=3" in out and "n=4" not in out

    def test_run_params_overridden_by_p(self, tmp_path, capsys):
        from repro.__main__ import main
        params = tmp_path / "kwargs.json"
        params.write_text(json.dumps({"n_values": [2, 3]}), encoding="utf-8")
        assert main(["run", "figure5", "--params", str(params),
                     "-p", "n_values=(2,)"]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out and "n=3" not in out

    def test_run_params_rejects_non_object(self, tmp_path):
        from repro.__main__ import main
        params = tmp_path / "kwargs.json"
        params.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SystemExit, match="JSON object"):
            main(["run", "figure5", "--params", str(params)])
