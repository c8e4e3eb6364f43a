"""Markdown emission: result tables and the self-contained ``REPORT.md``.

The report is written to be committed or archived as-is: artifact links are
relative to the report file, every section carries the provenance of the run
that produced it (seed, replication budget, backend, cache status, store
key), and the header pins the package and dependency versions plus the
figure backend — enough to reproduce any number in the document.
"""

from __future__ import annotations

import math
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import __version__
from repro.experiments.common import ExperimentResult
from repro.report.figures import Artifact, figure_backend

__all__ = ["ReportSection", "render_report", "report_provenance",
           "result_to_markdown_table"]


def _fmt_value(value: float, digits: int) -> str:
    if not math.isfinite(value):
        return str(value)                  # "inf" / "-inf" / "nan"
    if value != int(value) or abs(value) >= 1e16:
        return f"{value:.{digits}g}"
    return str(int(value))


def result_to_markdown_table(result: ExperimentResult, digits: int = 6) -> str:
    """GitHub-flavoured markdown table of an :class:`ExperimentResult`."""
    header = ["case", *result.columns]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in result.rows:
        cells = [row.label] + [_fmt_value(row.values[c], digits)
                               for c in result.columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def report_provenance(seed: Optional[int], backend: str,
                      extras: Optional[Dict[str, str]] = None
                      ) -> Dict[str, str]:
    """The version/seed/backend facts pinned in the report header."""
    import numpy
    facts = {
        "repro version": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "figure backend": figure_backend(),
        "execution backend": backend,
        "root seed": "fresh entropy" if seed is None else str(seed),
    }
    try:
        import scipy
        facts["scipy"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dep in practice
        facts["scipy"] = "not installed"
    if extras:
        facts.update(extras)
    return facts


@dataclass
class ReportSection:
    """One scenario's slice of the report."""

    name: str
    title: str
    paper_reference: str
    result: ExperimentResult
    artifacts: List[Artifact] = field(default_factory=list)
    cached: bool = False
    elapsed_seconds: float = 0.0
    key: Optional[str] = None
    reps: Optional[int] = None


def _relpath(path: str, report_dir: str) -> str:
    return os.path.relpath(path, report_dir).replace(os.sep, "/")


def render_report(sections: Sequence[ReportSection], report_dir: str,
                  provenance: Dict[str, str], digits: int = 6) -> str:
    """Assemble the full ``REPORT.md`` document text."""
    lines: List[str] = []
    lines.append("# Reproduction report — Shin & Lee (1983)")
    lines.append("")
    lines.append("Backward error recovery for concurrent processes with "
                 "recovery blocks (ICPP 1983): regenerated paper artifacts "
                 "with full provenance.")
    lines.append("")
    lines.append("## Provenance")
    lines.append("")
    lines.append("| fact | value |")
    lines.append("|---|---|")
    for fact, value in provenance.items():
        lines.append(f"| {fact} | {value} |")
    lines.append("")
    lines.append("## Contents")
    lines.append("")
    for section in sections:
        # GitHub heading anchors preserve underscores ("## figure5_full_chain"
        # -> "#figure5_full_chain"); scenario names are already slug-safe.
        anchor = section.name
        source = "store cache" if section.cached else \
            f"computed in {section.elapsed_seconds:.2f}s"
        lines.append(f"- [`{section.name}`](#{anchor}) — {section.title} "
                     f"({source})")
    lines.append("")

    for section in sections:
        lines.append(f"## {section.name}")
        lines.append("")
        lines.append(f"**{section.title}**")
        if section.paper_reference:
            lines.append("")
            lines.append(f"Reproduces: {section.paper_reference}")
        lines.append("")
        for artifact in section.artifacts:
            rel = _relpath(artifact.path, report_dir)
            if artifact.kind == "figure":
                lines.append(f"![{artifact.caption}]({rel})")
            else:
                lines.append(f"- [{artifact.caption}]({rel})")
            lines.append("")
        lines.append(result_to_markdown_table(section.result, digits))
        lines.append("")
        if section.result.notes:
            lines.append(f"*{section.result.notes}*")
            lines.append("")
        run_facts = ["cache hit" if section.cached
                     else f"computed, {section.elapsed_seconds:.2f}s"]
        if section.reps is not None:
            run_facts.append(f"reps={section.reps}")
        if section.key:
            run_facts.append(f"store key `{section.key[:12]}…`")
        lines.append(f"<sub>run: {', '.join(run_facts)}</sub>")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
