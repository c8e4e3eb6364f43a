"""Core domain model for recovery-block analysis.

This package contains the objects the paper reasons about, independent of any
particular implementation strategy:

* :class:`~repro.core.parameters.SystemParameters` — the stochastic model of
  Section 2.1 (recovery-point rates ``μ_i`` and pairwise interaction rates ``λ_ij``).
* :class:`~repro.core.types.RecoveryPoint`, :class:`~repro.core.types.Interaction`,
  :class:`~repro.core.types.RecoveryLine` — the entities appearing in the paper's
  history diagrams (Figure 1).
* :class:`~repro.core.history.HistoryDiagram` — a recorded execution history of a
  set of cooperating processes.
* :mod:`~repro.core.recovery_line` — detection of recovery lines, both the exact
  pairwise "no sandwiched message" condition and the conservative latest-RP
  condition used by the paper's Markov model.
* :mod:`~repro.core.rollback` — rollback propagation / domino-effect computation.
* :mod:`~repro.core.intervals` — extraction of the interval ``X`` between successive
  recovery lines and the per-process recovery-point counts ``L_i``.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use so
#: that a cell needing only :class:`SystemParameters` loads no history code.
_EXPORTS = {
    **dict.fromkeys(("CheckpointKind", "Interaction",
                     "ProcessId", "RecoveryLine", "RecoveryPoint"),
                    "repro.core.types"),
    "SystemParameters": "repro.core.parameters",
    "HistoryDiagram": "repro.core.history",
    **dict.fromkeys(("RecoveryLineDetector", "ExactRecoveryLineDetector",
                     "LatestRPRecoveryLineDetector", "is_consistent_line",
                     "find_recovery_lines"), "repro.core.recovery_line"),
    **dict.fromkeys(("RollbackResult", "propagate_rollback",
                     "rollback_distance", "is_domino"),
                    "repro.core.rollback"),
    **dict.fromkeys(("IntervalObservation", "extract_intervals"),
                    "repro.core.intervals"),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
