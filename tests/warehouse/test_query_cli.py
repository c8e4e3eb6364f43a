"""The ``repro query`` CLI face: load/kpi/sql verbs, formats, sandboxing."""

import json
import sqlite3

import pytest

from repro.__main__ import main
from repro.experiments.common import ExperimentResult
from repro.report.store import ResultStore, store_identity
from repro.warehouse import KPI_VIEWS, connect_readonly, kpi_rows, load_store
from repro.warehouse.cli import format_rows


@pytest.fixture()
def loaded(tmp_path):
    """A store with one tiny scheme sweep, loaded into a warehouse db."""
    store = ResultStore(str(tmp_path / "store"))
    for i, scheme in enumerate(("synchronized", "asynchronous")):
        result = ExperimentResult(name="api_evaluation", paper_reference="",
                                  columns=["value"],
                                  notes=json.dumps({"method": "strategy",
                                                    "backend": "serial",
                                                    "n_processes": 3}))
        result.add_row("makespan", value=20.0 + i)
        result.add_row("slowdown", value=1.3 + i / 10.0)
        store.put(store_identity(
                      "evaluate",
                      {"method": "strategy",
                       "spec": {"system": {"kind": "strategy",
                                           "scheme": scheme, "n": 3,
                                           "lam": 1.0,
                                           "checkpoint_cost": 0.02},
                                "metrics": ["makespan", "slowdown"]}},
                      11, 3),
                  backend="serial", elapsed_seconds=0.5, result=result)
    db = str(tmp_path / "wh.sqlite")
    load_store(str(tmp_path / "store"), db)
    return str(tmp_path / "store"), db


class TestKPIViews:
    def test_scheme_frontier_orders_by_workload_then_scheme(self, loaded):
        _store, db = loaded
        conn = connect_readonly(db)
        columns, rows = kpi_rows(conn, "scheme_frontier")
        conn.close()
        assert rows, "frontier view returned no rows"
        by = dict(zip(columns, rows[0]))
        assert by["scheme"] == "asynchronous"
        assert by["n"] == 3.0 and by["checkpoint_cost"] == 0.02
        assert by["makespan"] == 21.0 and by["slowdown"] == 1.3 + 1 / 10.0

    def test_every_view_in_catalog_is_queryable(self, loaded):
        _store, db = loaded
        conn = connect_readonly(db)
        for name in KPI_VIEWS:
            columns, _rows = kpi_rows(conn, name)
            assert columns
        conn.close()

    def test_unknown_view_lists_catalog(self, loaded):
        _store, db = loaded
        conn = connect_readonly(db)
        with pytest.raises(KeyError, match="scheme_frontier"):
            kpi_rows(conn, "nope")
        conn.close()

    def test_limit_caps_rows(self, loaded):
        _store, db = loaded
        conn = connect_readonly(db)
        _cols, rows = kpi_rows(conn, "scheme_frontier", limit=1)
        conn.close()
        assert len(rows) == 1


class TestFormats:
    def test_json_round_trips(self):
        text = format_rows(["a", "b"], [(1, "x"), (None, 2.5)], "json")
        assert json.loads(text) == [{"a": 1, "b": "x"},
                                    {"a": None, "b": 2.5}]

    def test_csv_has_header_and_rows(self):
        text = format_rows(["a", "b"], [(1, "x")], "csv")
        assert text.splitlines() == ["a,b", "1,x"]

    def test_table_aligns_columns_and_blanks_nulls(self):
        text = format_rows(["name", "v"], [("long-name", None), ("s", 2.0)],
                           "table")
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert lines[2].startswith("long-name")
        assert lines[3].split()[1] == "2.0"


class TestCLI:
    def test_load_then_kpi_end_to_end(self, loaded, capsys):
        store, db = loaded
        assert main(["query", "load", "--store", store, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "0 cell(s) loaded, 2 already present" in out
        assert main(["query", "kpi", "scheme_frontier", "--db", db,
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scheme,")
        assert len(out.strip().splitlines()) == 3      # header + 2 cells

    def test_kpi_without_name_lists_catalog(self, loaded, capsys):
        _store, db = loaded
        assert main(["query", "kpi", "--db", db]) == 0
        out = capsys.readouterr().out
        for name in KPI_VIEWS:
            assert name in out

    def test_sql_is_read_only(self, loaded):
        _store, db = loaded
        with pytest.raises(SystemExit, match="readonly"):
            main(["query", "sql", "DROP TABLE cells", "--db", db])
        conn = sqlite3.connect(db)
        assert conn.execute("SELECT COUNT(*) FROM cells").fetchone() == (2,)
        conn.close()

    def test_sql_select_renders_json(self, loaded, capsys):
        _store, db = loaded
        assert main(["query", "sql",
                     "SELECT scenario, COUNT(*) AS cells FROM cells "
                     "GROUP BY scenario", "--db", db,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"scenario": "evaluate", "cells": 2}]

    def test_missing_store_and_db_fail_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="result store not found"):
            main(["query", "load", "--store", str(tmp_path / "absent")])
        with pytest.raises(SystemExit, match="warehouse database not found"):
            main(["query", "kpi", "scheme_frontier",
                  "--db", str(tmp_path / "absent.sqlite")])

    def test_unknown_kpi_name_fails_with_catalog(self, loaded):
        _store, db = loaded
        with pytest.raises(SystemExit, match="known views"):
            main(["query", "kpi", "bogus", "--db", db])
