"""Error-propagation analysis.

The runtimes in :mod:`repro.recovery` inject faults online (through
:class:`~repro.workloads.spec.FaultModel`); this package provides the *offline*
counterpart used for analysis and testing: :mod:`~repro.faults.propagation`,
which, given a history and an error origin, computes which processes are
contaminated at any instant and which checkpoints are contaminated (the key
question for pseudo recovery points, Section 4).
"""

from repro.faults.propagation import (
    ContaminationAnalysis,
    contaminated_checkpoints,
    contamination_at,
)

__all__ = [
    "ContaminationAnalysis",
    "contaminated_checkpoints",
    "contamination_at",
]
