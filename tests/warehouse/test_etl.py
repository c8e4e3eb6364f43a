"""Warehouse ETL: idempotence, bit-exactness, transform rules."""

import json
import os
import sqlite3

import pytest

from repro.experiments.common import ExperimentResult
from repro.report.store import ResultStore, store_identity
from repro.warehouse import (
    connect,
    float_hex,
    hex_float,
    load_store,
)
from repro.warehouse.etl import _axis_row, _flatten_axes, _metric_rows


def _result(name="unit_result", **values):
    values = values or {"makespan": 18.25, "slowdown": 1.21359770746125}
    result = ExperimentResult(name=name, paper_reference="fixture",
                              columns=["value"], notes="fixture")
    for label, value in values.items():
        result.add_row(label, value=value)
    return result


def _fill(store, cells=4):
    """Populate *store* with a small scheme sweep; returns the records."""
    records = []
    schemes = ("synchronized", "asynchronous", "pseudo", "checkpointing")
    for i in range(cells):
        params = {"method": "strategy",
                  "spec": {"system": {"kind": "strategy",
                                      "scheme": schemes[i % len(schemes)],
                                      "n": 3 + i, "mu": 1.0, "lam": 0.5,
                                      "work": 15.0,
                                      "checkpoint_cost": 0.02 * (i + 1)},
                           "metrics": ["makespan", "slowdown"],
                           "counting": "per_process"}}
        result = _result(makespan=18.0 + i / 7.0,
                         slowdown=1.2 + i / 13.0,
                         **{"stderr_makespan": 0.5 / (i + 1)})
        records.append(store.put(store_identity("evaluate", params,
                                                11 + i, 3),
                                 backend="serial", elapsed_seconds=0.25 * i,
                                 result=result))
    return records


def _table_dump(db_path, table):
    conn = sqlite3.connect(db_path)
    try:
        return conn.execute(
            f"SELECT * FROM {table} ORDER BY 1, 2, 3").fetchall()
    finally:
        conn.close()


class TestIdempotence:
    def test_second_load_inserts_zero_rows(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        _fill(store)
        db = str(tmp_path / "wh.sqlite")
        first = load_store(str(tmp_path / "store"), db)
        assert first.cells_inserted == first.cells_seen == 4
        before = {t: _table_dump(db, t) for t in ("cells", "axes", "metrics")}
        second = load_store(str(tmp_path / "store"), db)
        assert second.cells_inserted == 0
        assert second.cells_skipped == 4
        after = {t: _table_dump(db, t) for t in ("cells", "axes", "metrics")}
        assert before == after

    def test_incremental_load_picks_up_only_new_cells(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        _fill(store, cells=2)
        db = str(tmp_path / "wh.sqlite")
        assert load_store(str(tmp_path / "store"), db).cells_inserted == 2
        _fill(store, cells=4)          # 2 known + 2 new content addresses
        summary = load_store(str(tmp_path / "store"), db)
        assert summary.cells_seen == 4
        assert summary.cells_inserted == 2

    def test_each_invocation_appends_one_provenance_row(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        _fill(store, cells=1)
        db = str(tmp_path / "wh.sqlite")
        load_store(str(tmp_path / "store"), db)
        load_store(str(tmp_path / "store"), db)
        conn = sqlite3.connect(db)
        rows = conn.execute(
            "SELECT store_root, cells_seen, cells_inserted FROM loads "
            "ORDER BY id").fetchall()
        conn.close()
        assert len(rows) == 2
        assert rows[0] == (os.path.abspath(str(tmp_path / "store")), 1, 1)
        assert rows[1] == (os.path.abspath(str(tmp_path / "store")), 1, 0)


class TestBitExactness:
    def test_metric_hex_matches_store_record(self, tmp_path):
        # Every warehouse metric must round-trip to the exact float the
        # StoreRecord reloads — same bits, asserted through float.hex.
        store = ResultStore(str(tmp_path / "store"))
        records = _fill(store)
        db = str(tmp_path / "wh.sqlite")
        load_store(str(tmp_path / "store"), db)
        conn = sqlite3.connect(db)
        for record in records:
            loaded = store.get(record.key)
            for row in loaded.result.rows:
                stored = float(row.get("value"))
                got = conn.execute(
                    "SELECT value_hex FROM metrics WHERE key = ? AND "
                    "label = ? AND col = 'value'",
                    (record.key, row.label)).fetchone()
                assert got is not None, (record.key, row.label)
                assert got[0] == float_hex(stored)
                assert hex_float(got[0]) == stored
        conn.close()

    def test_nonfinite_metric_survives_via_hex_sidecar(self, tmp_path):
        # SQLite REAL cannot hold NaN (it becomes NULL); the hex sidecar
        # must still reproduce inf and NaN bit patterns.
        store = ResultStore(str(tmp_path / "store"))
        result = ExperimentResult(name="nf", paper_reference="",
                                  columns=["value"])
        result.add_row("q_max", value=float("inf"))
        result.add_row("dropped", value=float("nan"))
        store.put(store_identity("nf", {"p": 1}, 1, None), backend="serial",
                  elapsed_seconds=0.0, result=result)
        db = str(tmp_path / "wh.sqlite")
        load_store(str(tmp_path / "store"), db)
        conn = sqlite3.connect(db)
        rows = dict(conn.execute(
            "SELECT label, value_hex FROM metrics").fetchall())
        nulls = dict(conn.execute(
            "SELECT label, value FROM metrics").fetchall())
        conn.close()
        assert hex_float(rows["q_max"]) == float("inf")
        assert hex_float(rows["dropped"]) != hex_float(rows["dropped"])  # NaN
        assert nulls["q_max"] == float("inf")   # SQLite REAL holds inf fine
        assert nulls["dropped"] is None         # ... but not NaN

    def test_stderr_folded_into_base_metric_row(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        record = _fill(store, cells=1)[0]
        db = str(tmp_path / "wh.sqlite")
        load_store(str(tmp_path / "store"), db)
        conn = sqlite3.connect(db)
        stderr, stderr_hex = conn.execute(
            "SELECT stderr, stderr_hex FROM metrics WHERE key = ? AND "
            "label = 'makespan' AND col = 'value'", (record.key,)).fetchone()
        own_row = conn.execute(
            "SELECT value FROM metrics WHERE key = ? AND "
            "label = 'stderr_makespan'", (record.key,)).fetchone()
        conn.close()
        assert stderr == 0.5 and stderr_hex == float_hex(0.5)
        assert own_row == (0.5,)           # kept as a row too: lossless image


class TestTransformRules:
    def test_axis_rows_classify_kinds(self):
        assert _axis_row("flag", True) == ("flag", "bool", "true", 1.0)
        assert _axis_row("n", 5) == ("n", "num", "5", 5.0)
        assert _axis_row("scheme", "pseudo") == ("scheme", "str", "pseudo",
                                                 None)
        assert _axis_row("opt", None) == ("opt", "null", None, None)
        axis, kind, text, num = _axis_row("metrics", ["a", "b"])
        assert (axis, kind, num) == ("metrics", "json", None)
        assert json.loads(text) == ["a", "b"]

    def test_evaluate_spec_flattens_system_args_to_axes(self):
        params = {"method": "strategy",
                  "spec": {"system": {"kind": "strategy", "scheme": "pseudo",
                                      "n": 4, "lam": 0.5},
                           "metrics": ["makespan"],
                           "options": {"rel_tol": 1e-9}}}
        axes = {row[0]: row for row in _flatten_axes("evaluate", params)}
        assert axes["method"][2] == "strategy"
        assert axes["kind"][2] == "strategy"
        assert axes["scheme"][2] == "pseudo"
        assert axes["n"][3] == 4.0
        assert axes["lam"][3] == 0.5
        assert axes["option.rel_tol"][3] == 1e-9
        assert "system" not in axes and "options" not in axes

    def test_plain_scenarios_map_params_one_to_one(self):
        axes = _flatten_axes("table1", {"simulate": False, "n": 5})
        assert [row[0] for row in axes] == ["n", "simulate"]

    def test_metric_rows_parse_strict_jsonable_strings(self):
        # Persisted envelopes carry non-finite floats as 'inf'-style strings.
        result = {"rows": [{"label": "q_max", "values": {"value": "inf"}}]}
        ((label, col, value, value_hex, stderr, stderr_hex),) = \
            _metric_rows(result)
        assert (label, col) == ("q_max", "value")
        assert value == float("inf")
        assert hex_float(value_hex) == float("inf")
        assert stderr is None and stderr_hex is None


class TestSchemaGuards:
    def test_incompatible_schema_version_fails_loudly(self, tmp_path):
        db = str(tmp_path / "wh.sqlite")
        conn = connect(db)
        conn.execute("UPDATE warehouse_meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 999"):
            connect(db)
