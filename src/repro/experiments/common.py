"""Shared result containers and rendering for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.util.tables import AsciiTable

__all__ = ["ExperimentRow", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentRow:
    """One row of an experiment table: a label plus named numeric values."""

    label: str
    values: Dict[str, float]

    def get(self, key: str) -> float:
        try:
            return float(self.values[key])
        except KeyError:
            available = ", ".join(sorted(self.values)) or "(none)"
            raise KeyError(f"row {self.label!r} has no column {key!r}; "
                           f"available columns: {available}") from None


@dataclass
class ExperimentResult:
    """A regenerated artefact: metadata, column order and rows.

    ``paper_reference`` names the table/figure of the paper the result reproduces;
    ``notes`` records substitutions or known deviations.
    """

    name: str
    paper_reference: str
    columns: Sequence[str]
    rows: List[ExperimentRow] = field(default_factory=list)
    notes: str = ""

    def add_row(self, label: str, **values: float) -> ExperimentRow:
        row = ExperimentRow(label=label, values={k: float(v) for k, v in values.items()})
        missing = [c for c in self.columns if c not in row.values]
        if missing:
            raise ValueError(f"row {label!r} is missing columns {missing}")
        self.rows.append(row)
        return row

    def column(self, key: str) -> List[float]:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def row(self, label: str) -> ExperimentRow:
        for row in self.rows:
            if row.label == label:
                return row
        known = ", ".join(repr(row.label) for row in self.rows) or "(no rows)"
        raise KeyError(f"result {self.name!r} has no row labelled {label!r}; "
                       f"known labels: {known}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (``python -m repro run --output``)."""
        return {
            "name": self.name,
            "paper_reference": self.paper_reference,
            "columns": list(self.columns),
            "rows": [{"label": row.label, "values": dict(row.values)}
                     for row in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output.

        The round trip is exact: ``ExperimentResult.from_dict(r.to_dict())``
        compares equal to ``r`` field by field, which is what lets the
        :class:`~repro.report.store.ResultStore` hand back stored runs as
        first-class results.
        """
        result = cls(
            name=str(payload["name"]),
            paper_reference=str(payload["paper_reference"]),
            columns=list(payload["columns"]),
            notes=str(payload.get("notes", "")),
        )
        for row in payload["rows"]:
            result.add_row(str(row["label"]),
                           **{str(k): float(v)
                              for k, v in row["values"].items()})
        return result

    def render(self, float_digits: int = 4) -> str:
        table = AsciiTable(["case", *self.columns], float_digits=float_digits)
        for row in self.rows:
            table.add_row([row.label, *(row.values[c] for c in self.columns)])
        header = f"{self.name}  (reproduces {self.paper_reference})"
        parts = [header, "=" * len(header), table.render()]
        if self.notes:
            parts.append("")
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
