"""Runner determinism, backends, sharding and the ``python -m repro`` CLI."""

import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.runner import (
    DEFAULT_SHARD_SIZE,
    ExecutionContext,
    ExperimentRunner,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    run_scenario,
    seed_to_int,
    shard_counts,
)


def _rows(result):
    return [(row.label, row.values) for row in result.rows]


class TestSharding:
    def test_exact_multiple(self):
        assert shard_counts(6_000, 2_000) == [2_000, 2_000, 2_000]

    def test_ragged_tail(self):
        assert shard_counts(4_500, 2_000) == [2_000, 2_000, 500]

    def test_small_budget_is_one_shard(self):
        assert shard_counts(7, 2_000) == [7]

    def test_total_preserved(self):
        assert sum(shard_counts(123_456, DEFAULT_SHARD_SIZE)) == 123_456

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_counts(0)
        with pytest.raises(ValueError):
            shard_counts(10, 0)


class TestSeeds:
    def test_seed_to_int_is_deterministic(self):
        a = np.random.SeedSequence(42).spawn(3)
        b = np.random.SeedSequence(42).spawn(3)
        assert [seed_to_int(s) for s in a] == [seed_to_int(s) for s in b]
        assert len({seed_to_int(s) for s in a}) == 3

    def test_spawned_seed_stream_is_backend_independent(self):
        serial = ExecutionContext(SerialBackend(), seed=9)
        parallel = ExecutionContext(ProcessPoolBackend(workers=2), seed=9)
        a = serial.spawn_seeds(4) + [serial.spawn_seed()]
        b = parallel.spawn_seeds(4) + [parallel.spawn_seed()]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]

    def test_reps_or(self):
        assert ExecutionContext(reps=None).reps_or(10) == 10
        assert ExecutionContext(reps=3).reps_or(10) == 3
        with pytest.raises(ValueError):
            ExecutionContext(reps=0).reps_or(10)


class TestBackends:
    def test_serial_map_preserves_order(self):
        assert SerialBackend().map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]

    def test_process_map_preserves_order(self):
        backend = ProcessPoolBackend(workers=2)
        assert backend.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]

    def test_process_empty_task_list(self):
        assert ProcessPoolBackend(workers=2).map(abs, []) == []

    def test_make_backend_coercions(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
        assert isinstance(make_backend(None, workers=2), ProcessPoolBackend)
        backend = ProcessPoolBackend(workers=3)
        assert make_backend(backend) is backend

    def test_make_backend_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_backend("threads")
        with pytest.raises(ValueError):
            make_backend("serial", workers=2)
        with pytest.raises(ValueError):
            make_backend(ProcessPoolBackend(), workers=2)
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)


def _slow_pid(_task):
    time.sleep(0.05)            # long enough for every worker to take a task
    return os.getpid()


def _exit_worker(_task):
    os._exit(1)


def _sigint_ignored(_task):
    return signal.getsignal(signal.SIGINT) == signal.SIG_IGN


class TestPersistentPool:
    def test_maps_reuse_the_same_workers(self):
        with ProcessPoolBackend(workers=2) as backend:
            first = set(backend.map(_slow_pid, range(8)))
            second = set(backend.map(_slow_pid, range(8)))
        # A pool per map would show up to four distinct worker PIDs.
        assert len(first | second) <= 2
        assert os.getpid() not in first | second
        # Closed is not dead: the next map builds a fresh pool.
        assert backend.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]
        backend.close()

    def test_worker_death_breaks_one_map_only(self):
        with ProcessPoolBackend(workers=2) as backend:
            with pytest.raises(BrokenProcessPool):
                backend.map(_exit_worker, range(4))
            assert backend.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]

    def test_workers_leave_ctrl_c_to_the_parent(self):
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.map(_sigint_ignored, range(4)) == [True] * 4
        assert not _sigint_ignored(None)


class TestDeterminism:
    """ISSUE acceptance: serial and process-pool runs are bit-identical."""

    @pytest.mark.parametrize("name,params", [
        ("table1", {"simulate": True}),
        ("validation", {"history_duration": 200.0}),
    ])
    def test_serial_matches_process_pool(self, name, params):
        serial = run_scenario(name, seed=123, reps=2_500, **params)
        pooled = run_scenario(name, seed=123, reps=2_500, backend="process",
                              workers=3, **params)
        assert _rows(serial) == _rows(pooled)

    @pytest.mark.parametrize("name,params", [
        ("figure5_full_chain", {"n_values": (4, 6), "rho_values": (1.0,)}),
        ("heterogeneous_sweep", {"n": 6, "mu_gradients": (1.0, 2.0)}),
    ])
    def test_sparse_scenarios_serial_matches_process_pool(self, name, params):
        # ISSUE acceptance: the two new analytic scenarios are bit-identical
        # across backends (their grid cells fan out through ctx.map).
        serial = run_scenario(name, seed=123, **params)
        pooled = run_scenario(name, seed=123, backend="process", workers=2,
                              **params)
        assert _rows(serial) == _rows(pooled)

    def test_worker_count_does_not_change_results(self):
        two = run_scenario("table1", simulate=True, seed=5, reps=2_500,
                           backend="process", workers=2)
        four = run_scenario("table1", simulate=True, seed=5, reps=2_500,
                            backend="process", workers=4)
        assert _rows(two) == _rows(four)

    def test_same_seed_same_result_different_seed_differs(self):
        a = run_scenario("validation", seed=7, reps=1_000)
        b = run_scenario("validation", seed=7, reps=1_000)
        c = run_scenario("validation", seed=8, reps=1_000)
        assert _rows(a) == _rows(b)
        assert _rows(a) != _rows(c)


class TestExperimentRunner:
    def test_runner_level_defaults_and_overrides(self):
        runner = ExperimentRunner(seed=3, reps=800)
        default = runner.run("validation")
        override = runner.run("validation", reps=800, seed=3)
        assert _rows(default) == _rows(override)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            ExperimentRunner().run("_no_such_scenario")


class TestCLI:
    def test_list_names_every_builtin(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "validation", "strategy_comparison"):
            assert name in out

    def test_run_analytic_scenario(self, capsys):
        assert cli_main(["run", "figure6"]) == 0
        out = capsys.readouterr().out
        assert "figure6_interval_density" in out

    def test_run_with_reps_and_params(self, capsys):
        assert cli_main(["run", "validation", "--reps", "200",
                         "-p", "cases=(1,)", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "table1 case 1" in out and "table1 case 2" not in out

    def test_list_names_new_sparse_scenarios(self, capsys):
        # ISSUE acceptance: both large-n scenarios appear in `repro list`.
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5_full_chain" in out
        assert "heterogeneous_sweep" in out

    def test_output_writes_json_envelope(self, capsys, tmp_path):
        # ISSUE satellite: --output persists params/seed/backend/elapsed + rows.
        path = tmp_path / "figure6.json"
        assert cli_main(["run", "figure6", "--seed", "9",
                         "-p", "sample_times=(0.0,1.0)", "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"result written to {path}" in out
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        assert envelope["scenario"] == "figure6"
        assert envelope["seed"] == 9
        assert envelope["backend"] == "serial"
        assert envelope["params"]["sample_times"] == [0.0, 1.0]
        assert envelope["elapsed_seconds"] >= 0.0
        result = envelope["result"]
        assert result["name"] == "figure6_interval_density"
        assert result["columns"] and result["rows"]
        assert set(result["rows"][0]) == {"label", "values"}

    def test_unknown_scenario_exits_nonzero(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "_no_such_scenario"])

    def test_workers_require_process_backend(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "figure6", "--workers", "2"])
