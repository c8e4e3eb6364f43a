"""Extract-transform-load: ResultStore objects → warehouse tables.

The loader reads the store's object files through
:meth:`ResultStore.envelopes`; the objects are the store's whole state, and
opening it first moves the objects of an earlier layout into place.

Loads are **incremental and idempotent**: ``cells.key`` is the primary key,
a cell already present is skipped wholesale (no axes/metrics rewrites), so
re-running ``load`` against an unchanged store touches zero rows.  Each
invocation appends one ``loads`` provenance row (store root, repro version,
load time, seen/inserted counts) whether or not anything was new.

Transform rules:

* the ``evaluate`` scenario's nested identity (``{"method": ..., "spec":
  {...}}``) is flattened so its *system args* — the sweep axes — become
  first-class ``axes`` rows (``scheme``, ``n``, ``lam``, ``checkpoint_cost``,
  ``failure_law``, ...), alongside ``method``, ``kind``, ``counting``,
  ``metrics`` and per-option ``option.<name>`` rows;
* any other scenario's params map one-to-one onto ``axes`` rows;
* every float of the stored result lands in ``metrics`` with its
  ``float.hex`` sidecar; ``stderr_<metric>`` companions are folded into the
  ``stderr`` column of the base metric's row (and kept as rows of their own,
  so the table remains a lossless image of the stored record).
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro import __version__
from repro.warehouse.schema import connect, float_hex, _sql_value

__all__ = ["LoadSummary", "load_store"]


@dataclass(frozen=True)
class LoadSummary:
    """What one ``load`` invocation did."""

    store_root: str
    load_id: int
    cells_seen: int
    cells_inserted: int

    @property
    def cells_skipped(self) -> int:
        return self.cells_seen - self.cells_inserted


# --------------------------------------------------------------------- axes
def _axis_row(axis: str, value) -> Tuple[str, str, Optional[str],
                                         Optional[float]]:
    """Classify one parameter into an ``axes`` row: (axis, kind, text, num).

    Booleans are checked before numbers (``bool`` is an ``int`` subclass);
    structured values keep their canonical JSON so nothing is lossy.
    """
    if isinstance(value, bool):
        return axis, "bool", "true" if value else "false", float(value)
    if isinstance(value, (int, float)):
        return axis, "num", json.dumps(value), float(value)
    if isinstance(value, str):
        return axis, "str", value, None
    if value is None:
        return axis, "null", None, None
    return axis, "json", json.dumps(value, sort_keys=True), None


def _flatten_axes(scenario: str, params: Dict[str, object]
                  ) -> List[Tuple[str, str, Optional[str], Optional[float]]]:
    """The ``axes`` rows of one cell (see the module docstring for rules)."""
    rows: List[Tuple[str, str, Optional[str], Optional[float]]] = []
    if scenario == "evaluate" and isinstance(params.get("spec"), dict):
        spec = dict(params["spec"])
        rows.append(_axis_row("method", params.get("method")))
        system = dict(spec.pop("system", {}))
        rows.append(_axis_row("kind", system.pop("kind", None)))
        for name in sorted(system):
            rows.append(_axis_row(name, system[name]))
        options = dict(spec.pop("options", {}) or {})
        for name in sorted(options):
            rows.append(_axis_row(f"option.{name}", options[name]))
        for name in sorted(spec):                  # metrics, counting, times
            rows.append(_axis_row(name, spec[name]))
    else:
        for name in sorted(params):
            rows.append(_axis_row(name, params[name]))
    return rows


# ------------------------------------------------------------------ metrics
def _metric_rows(result: Dict[str, object]
                 ) -> List[Tuple[str, str, Optional[float], str,
                                 Optional[float], Optional[str]]]:
    """The ``metrics`` rows of one stored result.

    Values arrive through ``strict_jsonable`` persistence, so non-finite
    floats may be ``"inf"``-style strings — ``float()`` parses both forms,
    the same way :meth:`ExperimentResult.from_dict` does.
    """
    by_label: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for row in result.get("rows", []):
        label = str(row["label"])
        if label not in by_label:
            order.append(label)
        values = {str(col): float(v)
                  for col, v in dict(row["values"]).items()}
        by_label.setdefault(label, {}).update(values)
    rows = []
    for label in order:
        for col, value in by_label[label].items():
            stderr = by_label.get(f"stderr_{label}", {}).get(col)
            rows.append((label, col, _sql_value(value), float_hex(value),
                         None if stderr is None else _sql_value(stderr),
                         None if stderr is None else float_hex(stderr)))
    return rows


# -------------------------------------------------------------------- cells
def _result_envelope(result: Dict[str, object]) -> Dict[str, object]:
    """The engine metadata an api-facade result carries in its notes."""
    if result.get("name") != "api_evaluation":
        return {}
    try:
        notes = json.loads(str(result.get("notes", "")))
    except json.JSONDecodeError:
        return {}
    return notes if isinstance(notes, dict) else {}


def _as_int(value) -> Optional[int]:
    return None if value is None else int(value)


def load_store(store_root: str,
               db: Union[str, sqlite3.Connection]) -> LoadSummary:
    """Load every cell of the store at *store_root* into the warehouse *db*.

    *db* is a database path (opened/created read-write) or an open
    connection.  Returns a :class:`LoadSummary`; a second run over an
    unchanged store reports ``cells_inserted == 0`` and leaves every
    ``cells``/``axes``/``metrics`` row byte-identical.
    """
    from repro.report.store import ResultStore
    own = isinstance(db, (str, os.PathLike))
    conn = connect(os.fspath(db)) if own else db
    try:
        store = ResultStore(store_root)
        seen = inserted = 0
        cursor = conn.cursor()
        cursor.execute(
            "INSERT INTO loads (store_root, repro_version, loaded_at, "
            "cells_seen, cells_inserted) VALUES (?, ?, ?, 0, 0)",
            (os.path.abspath(store_root), __version__,
             datetime.now(timezone.utc).isoformat(timespec="seconds")))
        load_id = cursor.lastrowid
        for envelope in store.envelopes():
            seen += 1
            key = str(envelope["key"])
            if cursor.execute("SELECT 1 FROM cells WHERE key = ?",
                              (key,)).fetchone() is not None:
                continue
            inserted += 1
            scenario = str(envelope["scenario"])
            params = dict(envelope.get("params", {}))
            result = dict(envelope.get("result", {}))
            notes = _result_envelope(result)
            engine = params.get("method") if scenario == "evaluate" \
                else notes.get("method")
            elapsed = float(envelope.get("elapsed_seconds", 0.0))
            cursor.execute(
                "INSERT INTO cells (key, scenario, engine, backend, "
                "engine_backend, seed, reps, version, created_at, "
                "elapsed_seconds, elapsed_hex, n_processes, n_samples, "
                "load_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key, scenario,
                 None if engine is None else str(engine),
                 envelope.get("backend"),
                 notes.get("backend"),
                 _as_int(envelope.get("seed")),
                 _as_int(envelope.get("reps")),
                 str(envelope.get("version", "")),
                 str(envelope.get("created_at", "")),
                 elapsed, float_hex(elapsed),
                 _as_int(notes.get("n_processes")),
                 _as_int(notes.get("n_samples")),
                 load_id))
            cursor.executemany(
                "INSERT INTO axes (key, axis, kind, text_value, num_value) "
                "VALUES (?, ?, ?, ?, ?)",
                [(key, *row) for row in _flatten_axes(scenario, params)])
            cursor.executemany(
                "INSERT INTO metrics (key, label, col, value, value_hex, "
                "stderr, stderr_hex) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(key, *row) for row in _metric_rows(result)])
        cursor.execute(
            "UPDATE loads SET cells_seen = ?, cells_inserted = ? "
            "WHERE id = ?", (seen, inserted, load_id))
        conn.commit()
        return LoadSummary(store_root=os.fspath(store_root),
                           load_id=int(load_id), cells_seen=seen,
                           cells_inserted=inserted)
    finally:
        if own:
            conn.close()
