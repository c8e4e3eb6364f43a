"""Artifact persistence and paper-figure reporting (``repro.report``).

This package turns experiment runs from throwaway stdout into durable,
resumable artifacts:

``store``
    :class:`ResultStore` — a content-addressed artifact directory.  Every
    run is keyed by SHA-256 over (scenario, canonicalised params, seed,
    replication budget, code version) and stored as one atomically written
    object at ``objects/<key[:2]>/<key>.json``, with no index and no lock.
    The :class:`~repro.runner.runner.ExperimentRunner`, ``repro eval`` and
    the evaluation service write results through the same store and serve
    cache hits without re-executing, which is what lets an interrupted
    large-n sweep *resume* instead of recompute.  ``envelopes()`` feeds the
    analytics warehouse (:mod:`repro.warehouse` — load every stored cell
    into SQLite and query it with ``python -m repro query``).
``figures``
    The renderer registry mapping scenarios to paper artifacts (Figure 5,
    Figure 6, Table 1, the heterogeneous sweep) with a headless matplotlib
    backend when available and a dependency-free SVG fallback otherwise.
``svg``
    The fallback chart renderer itself (pure Python, no third-party deps).
``markdown``
    Markdown tables and the self-contained ``REPORT.md`` document with a
    provenance header (versions, seed, backends, figure backend).
``pipeline``
    :func:`generate_report` — the glue behind ``python -m repro report``:
    run missing cells through the store, render declared artifacts, emit
    the report.

Quickstart
----------
>>> from repro.report import generate_report
>>> summary = generate_report(["table1"], out_dir="reports")  # doctest: +SKIP
>>> summary.report_path                                       # doctest: +SKIP
'reports/REPORT.md'
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use so
#: that opening a store loads neither the runner nor the numeric stack.
_EXPORTS = {
    **dict.fromkeys(("Artifact", "figure_backend", "register_renderer",
                     "render_artifacts", "renderer_names"),
                    "repro.report.figures"),
    **dict.fromkeys(("ReportSection", "render_report", "report_provenance",
                     "result_to_markdown_table"), "repro.report.markdown"),
    **dict.fromkeys(("ReportSummary", "default_scenario_order",
                     "generate_report"), "repro.report.pipeline"),
    **dict.fromkeys(("ResultStore", "StoreRecord",
                     "canonical_params", "store_key"), "repro.report.store"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
