"""Report pipeline: rendering, REPORT.md, cache/resume, and the CLI."""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.common import ExperimentResult
from repro.report import (ResultStore, figure_backend, generate_report,
                          render_artifacts, result_to_markdown_table)
from repro.report.pipeline import default_scenario_order
from repro.report.svg import ChartSeries, LineChart, render_line_chart_svg
from repro.runner import (ExperimentRunner, ScenarioSpec, register_scenario,
                          run_scenario, unregister_scenario)


@pytest.fixture
def probe_scenario():
    """A registered one-row scenario that counts its executions."""
    calls = []

    def probe(ctx, *, knob: float = 1.0) -> ExperimentResult:
        calls.append(knob)
        result = ExperimentResult(name="probe", paper_reference="(test)",
                                  columns=["value"])
        result.add_row("only", value=knob * 2.0)
        return result

    register_scenario(ScenarioSpec(name="tmp_report_probe", func=probe,
                                   description="execution-counting probe"))
    try:
        yield calls
    finally:
        unregister_scenario("tmp_report_probe")


class TestRunnerStoreHook:
    def test_write_through_then_cache_hit(self, tmp_path, probe_scenario):
        store = ResultStore(str(tmp_path / "store"))
        runner = ExperimentRunner(seed=5, store=store)
        first = runner.run_record("tmp_report_probe")
        second = runner.run_record("tmp_report_probe")
        assert probe_scenario == [1.0]          # executed exactly once
        assert not first.cached and second.cached
        assert first.key == second.key
        assert second.result.to_dict() == first.result.to_dict()

    def test_param_seed_and_reps_changes_miss(self, tmp_path, probe_scenario):
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(seed=5, store=store)
        runner.run_record("tmp_report_probe")
        runner.run_record("tmp_report_probe", knob=2.0)
        runner.run_record("tmp_report_probe", seed=6)
        runner.run_record("tmp_report_probe", reps=10)
        assert probe_scenario == [1.0, 2.0, 1.0, 1.0]   # four distinct cells

    def test_numpy_seed_is_storable(self, tmp_path, probe_scenario):
        # np.arange sweeps hand the runner np.int64 seeds; the store must
        # canonicalise them instead of dying in json.dumps.
        import numpy as np
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(store=store)
        first = runner.run_record("tmp_report_probe", seed=np.int64(5))
        second = runner.run_record("tmp_report_probe", seed=5)
        assert second.cached and first.key == second.key
        assert probe_scenario == [1.0]

    def test_force_recomputes(self, tmp_path, probe_scenario):
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(seed=5, store=store)
        runner.run_record("tmp_report_probe")
        record = runner.run_record("tmp_report_probe", force=True)
        assert not record.cached
        assert probe_scenario == [1.0, 1.0]

    def test_resume_across_runner_instances(self, tmp_path, probe_scenario):
        # The resume story: a new runner (new process, interrupted sweep)
        # pointed at the same store picks up the finished cells.
        store_root = str(tmp_path / "store")
        ExperimentRunner(seed=5, store=ResultStore(store_root)) \
            .run_record("tmp_report_probe")
        record = ExperimentRunner(seed=5, store=ResultStore(store_root)) \
            .run_record("tmp_report_probe")
        assert record.cached and probe_scenario == [1.0]

    def test_fresh_entropy_runs_are_never_cached(self, tmp_path,
                                                 probe_scenario):
        # seed=None draws fresh OS entropy: two such runs are different
        # experiments and must not be served from (or written to) the store.
        store = ResultStore(str(tmp_path))
        runner = ExperimentRunner(store=store)       # no seed anywhere
        a = runner.run_record("tmp_report_probe")
        b = runner.run_record("tmp_report_probe")
        assert not a.cached and not b.cached and a.key is None
        assert probe_scenario == [1.0, 1.0]
        assert len(store) == 0

    def test_omitted_reps_keys_as_the_scenario_default(self, tmp_path):
        calls = []

        def probe(ctx, **_):
            calls.append(ctx.reps_or(7))
            result = ExperimentResult(name="p", paper_reference="",
                                      columns=["v"])
            result.add_row("r", v=1.0)
            return result

        register_scenario(ScenarioSpec(name="tmp_reps_probe", func=probe,
                                       default_reps=7))
        try:
            runner = ExperimentRunner(seed=5, store=ResultStore(str(tmp_path)))
            first = runner.run_record("tmp_reps_probe")            # reps=None
            second = runner.run_record("tmp_reps_probe", reps=7)   # explicit
            assert first.key == second.key and second.cached
            assert first.reps == second.reps == 7
            assert calls == [7]
        finally:
            unregister_scenario("tmp_reps_probe")

    def test_no_store_means_no_caching(self, probe_scenario):
        runner = ExperimentRunner(seed=5)
        a = runner.run_record("tmp_report_probe")
        b = runner.run_record("tmp_report_probe")
        assert not a.cached and not b.cached and a.key is None
        assert probe_scenario == [1.0, 1.0]

    def test_run_scenario_accepts_store(self, tmp_path, probe_scenario):
        store = ResultStore(str(tmp_path))
        run_scenario("tmp_report_probe", seed=1, store=store)
        run_scenario("tmp_report_probe", seed=1, store=store)
        assert probe_scenario == [1.0]


class TestRenderers:
    def test_figure5_artifact(self, tmp_path):
        result = run_scenario("figure5", n_values=(2, 3, 4),
                              rho_values=(0.5, 1.0),
                              cross_check_full_chain_up_to=0)
        artifacts = render_artifacts("figure5", result, str(tmp_path), "figure5")
        assert len(artifacts) == 1
        assert artifacts[0].kind == "figure"
        assert os.path.isfile(artifacts[0].path)

    def test_figure6_artifact(self, tmp_path):
        result = run_scenario("figure6", sample_times=(0.0, 0.5, 1.0))
        (artifact,) = render_artifacts("figure6", result, str(tmp_path), "f6")
        with open(artifact.path, encoding="utf-8") as handle:
            body = handle.read()
        if figure_backend() == "builtin-svg":
            assert body.startswith("<svg") and "case 1" in body

    def test_table_renderer_writes_markdown(self, tmp_path):
        result = run_scenario("table1")
        (artifact,) = render_artifacts("table", result, str(tmp_path), "table1")
        assert artifact.kind == "table"
        with open(artifact.path, encoding="utf-8") as handle:
            body = handle.read()
        assert "| case |" in body and "case 1" in body

    def test_table_renderer_honours_digits(self, tmp_path):
        result = ExperimentResult(name="d", paper_reference="", columns=["v"])
        result.add_row("r", v=1.23456789)
        (two,) = render_artifacts("table", result, str(tmp_path), "d2", 2)
        with open(two.path, encoding="utf-8") as handle:
            assert "| r | 1.2 |" in handle.read()

    def test_unknown_renderer_raises(self, tmp_path):
        result = run_scenario("figure6")
        with pytest.raises(KeyError, match="unknown renderer"):
            render_artifacts("nope", result, str(tmp_path), "x")

    def test_none_renderer_renders_nothing(self, tmp_path):
        result = run_scenario("figure6")
        assert render_artifacts(None, result, str(tmp_path), "x") == []

    def test_markdown_table_shape(self):
        result = ExperimentResult(name="t", paper_reference="", columns=["c"])
        result.add_row("r", c=0.5)
        table = result_to_markdown_table(result)
        assert table.splitlines()[0] == "| case | c |"
        assert "| r | 0.5 |" in table

    def test_markdown_table_survives_nonfinite_values(self):
        # q max/min can overflow to inf at steep gradients; the table must
        # render it, not crash the report after all the compute is done.
        result = ExperimentResult(name="t", paper_reference="",
                                  columns=["a", "b"])
        result.add_row("r", a=float("inf"), b=float("nan"))
        table = result_to_markdown_table(result)
        assert "| r | inf | nan |" in table


class TestSvgFallback:
    def test_line_chart_is_wellformed_xml(self):
        import xml.etree.ElementTree as ET
        chart = LineChart(title="t < 1 & x", x_label="x", y_label="y",
                          x=[1, 2, 3])
        chart.add_series("a", [1.0, 2.0, 4.0])
        chart.add_series("b", [2.0, 1.0, 0.5])
        document = render_line_chart_svg(chart)
        root = ET.fromstring(document)
        assert root.tag.endswith("svg")

    def test_log_scale_constant_series_renders(self):
        # A probability column pinned at one power of 10 must not divide by
        # a zero log-range.
        chart = LineChart(title="const", x_label="x", y_label="y",
                          x=[1, 2, 3], log_y=True)
        chart.add_series("a", [1.0, 1.0, 1.0])
        assert "polyline" in render_line_chart_svg(chart)

    def test_log_scale_skips_nonpositive_points(self):
        chart = LineChart(title="log", x_label="x", y_label="y",
                          x=[1, 2, 3], log_y=True)
        chart.add_series("a", [0.0, 10.0, 100.0])
        document = render_line_chart_svg(chart)
        assert "polyline" in document

    def test_too_many_series_is_an_error(self):
        chart = LineChart(title="t", x_label="x", y_label="y", x=[1, 2])
        for index in range(9):
            chart.add_series(f"s{index}", [1.0, 2.0])
        with pytest.raises(ValueError, match="at most"):
            render_line_chart_svg(chart)


class TestGenerateReport:
    def test_report_for_tiny_scenario(self, tmp_path, probe_scenario):
        summary = generate_report(["tmp_report_probe"],
                                  out_dir=str(tmp_path / "reports"))
        assert os.path.isfile(summary.report_path)
        with open(summary.report_path, encoding="utf-8") as handle:
            report = handle.read()
        assert "tmp_report_probe" in report
        assert "repro version" in report
        assert summary.computed == 1 and summary.cache_hits == 0
        # TOC anchors must match GitHub's slugs, which keep underscores.
        assert "](#tmp_report_probe)" in report
        assert "## tmp_report_probe" in report

    def test_rerun_hits_cache_and_skips_execution(self, tmp_path,
                                                  probe_scenario):
        out = str(tmp_path / "reports")
        generate_report(["tmp_report_probe"], out_dir=out)
        summary = generate_report(["tmp_report_probe"], out_dir=out)
        # ISSUE acceptance: the re-run re-renders from the store without
        # executing any scenario.
        assert probe_scenario == [1.0]
        assert summary.cache_hits == 1 and summary.computed == 0
        with open(summary.report_path, encoding="utf-8") as handle:
            assert "store cache" in handle.read()

    def test_paper_artifacts_present(self, tmp_path):
        # Small-parameter variants of the real paper scenarios still route
        # through their declared renderers into figures/ and tables/.
        out = str(tmp_path / "reports")
        summary = generate_report(["table1", "figure6"], out_dir=out)
        kinds = {os.path.basename(path) for path in summary.artifact_paths}
        extension = "png" if figure_backend() == "matplotlib" else "svg"
        assert kinds == {"table1.md", f"figure6.{extension}"}
        with open(summary.report_path, encoding="utf-8") as handle:
            report = handle.read()
        assert f"figures/figure6.{extension}" in report
        assert "tables/table1.md" in report

    def test_default_scenario_order_is_paper_first(self):
        names = ["validation", "figure6", "table1", "aaa"]
        assert default_scenario_order(names) == \
            ["table1", "figure6", "aaa", "validation"]


class TestReportCLI:
    def test_smoke_on_tiny_scenario(self, tmp_path, capsys, probe_scenario):
        out = str(tmp_path / "r")
        assert cli_main(["report", "tmp_report_probe", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "report written to" in stdout
        assert os.path.isfile(os.path.join(out, "REPORT.md"))

    def test_cli_rerun_is_all_cache_hits(self, tmp_path, capsys,
                                         probe_scenario):
        out = str(tmp_path / "r")
        assert cli_main(["report", "tmp_report_probe", "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["report", "tmp_report_probe", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "0 scenario(s) computed, 1 served from the store" in stdout
        assert probe_scenario == [1.0]

    def test_requires_scenarios_or_all(self):
        with pytest.raises(SystemExit):
            cli_main(["report"])
        with pytest.raises(SystemExit):
            cli_main(["report", "table1", "--all"])

    def test_unknown_scenario_fails_before_running(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown scenario"):
            cli_main(["report", "_no_such_scenario",
                      "--out", str(tmp_path / "r")])
        assert not os.path.exists(tmp_path / "r" / "REPORT.md")


class TestRunCLIStoreAndForce:
    def test_run_store_cache_hit(self, tmp_path, capsys, probe_scenario):
        store = str(tmp_path / "store")
        assert cli_main(["run", "tmp_report_probe", "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["run", "tmp_report_probe", "--store", store]) == 0
        stdout = capsys.readouterr().out
        assert "cache hit" in stdout
        assert probe_scenario == [1.0]

    def test_force_overwrites_output_without_recomputing(self, tmp_path,
                                                         capsys,
                                                         probe_scenario):
        # --force governs the -o overwrite only; exporting a cached result
        # over an existing file must not trigger a recompute (--recompute
        # exists for that).
        store = str(tmp_path / "store")
        path = tmp_path / "out.json"
        assert cli_main(["run", "tmp_report_probe", "--store", store,
                         "-o", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["run", "tmp_report_probe", "--store", store,
                         "-o", str(path), "--force"]) == 0
        assert "cache hit" in capsys.readouterr().out
        assert probe_scenario == [1.0]
        assert cli_main(["run", "tmp_report_probe", "--store", store,
                         "--recompute"]) == 0
        assert probe_scenario == [1.0, 1.0]

    def test_output_refuses_overwrite_without_force(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert cli_main(["run", "figure6", "-o", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="--force"):
            cli_main(["run", "figure6", "-o", str(path)])
        assert cli_main(["run", "figure6", "-o", str(path), "--force"]) == 0

    def test_output_envelope_carries_version(self, tmp_path):
        from repro import __version__
        path = tmp_path / "out.json"
        assert cli_main(["run", "figure6", "-o", str(path)]) == 0
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        assert envelope["version"] == __version__
        assert envelope["cached"] is False

    def test_cached_envelope_reports_original_backend(self, tmp_path, capsys,
                                                      probe_scenario):
        # Cache-served -o envelopes must credit the backend that computed
        # the result and say they were cached.
        store = str(tmp_path / "store")
        assert cli_main(["run", "tmp_report_probe", "--store", store]) == 0
        path = tmp_path / "out.json"
        assert cli_main(["run", "tmp_report_probe", "--store", store,
                         "--backend", "process", "--workers", "2",
                         "-o", str(path)]) == 0
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        assert envelope["cached"] is True
        assert envelope["backend"] == "serial"      # the computing run's
        assert probe_scenario == [1.0]
