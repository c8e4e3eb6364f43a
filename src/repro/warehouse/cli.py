"""The ``python -m repro query`` subcommand: load, kpi, sql.

Three verbs over one SQLite warehouse file:

``query load --store DIR [--db FILE]``
    Run the incremental ETL (:func:`repro.warehouse.etl.load_store`).
``query kpi [NAME] [--format table|json|csv] [--limit N]``
    Render one canned KPI view (:data:`repro.warehouse.views.KPI_VIEWS`);
    without a name, list the catalog.
``query sql STMT [--format ...]``
    Run one read-only SQL statement.  The connection is opened ``mode=ro``
    with ``PRAGMA query_only`` — writes fail inside SQLite itself, so the
    flag is a sandbox, not a parser.

All output formats render the same ``(columns, rows)`` shape; ``json``
emits a list of row objects, ``csv`` uses the stdlib writer, ``table``
pads columns to their widest cell.  The verbs' arguments are declared with
the rest of the CLI in :mod:`repro.__main__`, so only ``query`` itself
imports this package.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sqlite3
from typing import List, Sequence

from repro.warehouse.etl import load_store
from repro.warehouse.schema import connect_readonly
from repro.warehouse.views import KPI_VIEWS, kpi_rows

__all__ = ["cmd_query", "format_rows"]


def _render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)                  # shortest exact decimal form
    return str(value)


def format_rows(columns: List[str], rows: Sequence[Sequence[object]],
                fmt: str) -> str:
    """Render query output as an aligned table, JSON row objects, or CSV."""
    if fmt == "json":
        return json.dumps([dict(zip(columns, row)) for row in rows],
                          indent=2, sort_keys=False)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_render_cell(v) for v in row])
        return buffer.getvalue().rstrip("\n")
    # table
    cells = [[_render_cell(v) for v in row] for row in rows]
    widths = [max([len(name)] + [len(row[i]) for row in cells])
              for i, name in enumerate(columns)]
    lines = ["  ".join(name.ljust(widths[i])
                       for i, name in enumerate(columns)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _cmd_load(args: argparse.Namespace) -> int:
    import os
    if not os.path.isdir(args.store):
        raise SystemExit(f"result store not found: {args.store}")
    summary = load_store(args.store, args.db)
    print(f"[query load] {summary.cells_inserted} cell(s) loaded, "
          f"{summary.cells_skipped} already present "
          f"(store={args.store} db={args.db} load_id={summary.load_id})")
    return 0


def _cmd_kpi(args: argparse.Namespace) -> int:
    if args.view is None:
        width = max(len(name) for name in KPI_VIEWS)
        for name in sorted(KPI_VIEWS):
            print(f"{name:<{width}}  {KPI_VIEWS[name].description}")
        return 0
    if args.limit < 0:
        raise SystemExit("--limit must be >= 0")
    try:
        conn = connect_readonly(args.db)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    try:
        try:
            columns, rows = kpi_rows(conn, args.view, limit=args.limit)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
        except sqlite3.OperationalError as exc:
            raise SystemExit(
                f"cannot query view {args.view!r}: {exc} "
                "(re-run `python -m repro query load` to refresh the views)")
    finally:
        conn.close()
    print(format_rows(columns, rows, args.format))
    if args.format == "table":
        print(f"\n[{len(rows)} row(s) from {args.view}]")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    try:
        conn = connect_readonly(args.db)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    try:
        try:
            cursor = conn.execute(args.statement)
            rows = cursor.fetchall()
            columns = [d[0] for d in cursor.description] \
                if cursor.description else []
        except sqlite3.Error as exc:
            raise SystemExit(f"SQL error: {exc}")
    finally:
        conn.close()
    print(format_rows(columns, rows, args.format))
    if args.format == "table":
        print(f"\n[{len(rows)} row(s)]")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Dispatch the ``query`` subcommand (the ``python -m repro query`` body)."""
    if args.query_command == "load":
        return _cmd_load(args)
    if args.query_command == "kpi":
        return _cmd_kpi(args)
    return _cmd_sql(args)
