"""Analytics warehouse over the result store (``repro.warehouse``).

The :class:`~repro.report.store.ResultStore` turned every experiment run
into a durable, content-addressed cell; this package turns the accumulated
cells into a **queryable experiment history**.  An incremental ETL
(:mod:`~repro.warehouse.etl`) loads the store's objects into one SQLite
database with typed tables (:mod:`~repro.warehouse.schema`):
``cells`` (identity + provenance), ``axes`` (one row per spec parameter —
the sweep axes, pivotable in SQL) and ``metrics`` (every stored float with
a bit-exact ``float.hex`` sidecar).  Canned KPI views
(:mod:`~repro.warehouse.views`) answer the paper's recurring questions —
scheme trade-off frontier, slowdown-vs-checkpoint-cost surfaces,
conformance drift across code versions, cache economics — and the
``python -m repro query`` CLI (:mod:`~repro.warehouse.cli`) exposes
``load`` / ``kpi`` / read-only ``sql`` on top.

Quickstart
----------
>>> from repro.warehouse import load_store, kpi_rows, connect_readonly
>>> load_store("reports/store", "warehouse.sqlite")       # doctest: +SKIP
>>> conn = connect_readonly("warehouse.sqlite")           # doctest: +SKIP
>>> cols, rows = kpi_rows(conn, "scheme_frontier")        # doctest: +SKIP

See ``docs/WAREHOUSE.md`` for the schema and the KPI catalog.
"""

from repro.warehouse.etl import LoadSummary, load_store
from repro.warehouse.schema import (SCHEMA_VERSION, connect,
                                    connect_readonly, float_hex, hex_float)
from repro.warehouse.views import KPI_VIEWS, KPIView, create_views, kpi_rows

__all__ = [
    "KPI_VIEWS",
    "KPIView",
    "LoadSummary",
    "SCHEMA_VERSION",
    "connect",
    "connect_readonly",
    "create_views",
    "float_hex",
    "hex_float",
    "kpi_rows",
    "load_store",
]
