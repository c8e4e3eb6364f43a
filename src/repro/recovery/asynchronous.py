"""Asynchronous recovery blocks (Section 2) as a running system.

Every process establishes recovery points on its own schedule: at each
recovery-block boundary the acceptance test runs (with alternate retries, per the
block spec) and, if it passes, the state is saved as a regular recovery point.
When an acceptance test fails, rollback propagation is computed over the recorded
history — exactly the mechanism behind the domino effect — and every affected
process is pushed back to the most recent *consistent* set of checkpoints.

The paper's warning materialises here: nothing bounds how far the propagation can
reach, so the rollback distance observed by this runtime is the empirical
counterpart of the interval ``X`` analysed in Section 2.3.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.recovery_line import ExactRecoveryLineDetector
from repro.core.rollback import rollback_rows
from repro.recovery.base import RecoverySchemeRuntime
from repro.workloads.spec import WorkloadSpec

__all__ = ["AsynchronousRuntime"]


class AsynchronousRuntime(RecoverySchemeRuntime):
    """The asynchronous recovery-block scheme.

    Parameters
    ----------
    workload:
        The workload specification.
    seed:
        Random seed for reproducibility.
    purge_behind_recovery_lines:
        When True the runtime periodically detects committed recovery lines (using
        the exact detector) and purges saved states older than the line — an
        optimisation real systems use; disabled by default to expose the storage
        growth the paper warns about ("a great number of largely useless recovery
        points occupying large amounts of memory space").
    """

    scheme_name = "asynchronous"

    def __init__(self, workload: WorkloadSpec, seed: Optional[int] = None, *,
                 purge_behind_recovery_lines: bool = False) -> None:
        super().__init__(workload, seed)
        self.purge_behind_recovery_lines = bool(purge_behind_recovery_lines)
        self._executors = self._block_executors()
        self._line_detector = ExactRecoveryLineDetector()

    # ------------------------------------------------------------------ hooks
    def on_block_boundary(self, pid: int) -> None:
        if self._block_passes(pid):
            self.take_checkpoint(pid)
            if self.purge_behind_recovery_lines:
                self._maybe_purge()

    def on_error_detected(self, pid: int) -> None:
        # Section 2 semantics: only regular recovery points are restart states.
        history = self.history
        restart, invalidated, _ = rollback_rows(
            history, pid, self.now, history.interaction_columns()[4])
        self.apply_rollback(restart, invalidated)

    # ------------------------------------------------------------------ extras
    def _maybe_purge(self) -> None:
        lines = self._line_detector.find_lines(self.history)
        if len(lines) < 2:
            return
        latest = lines[-1]
        for pid in range(self.n):
            self.store.purge_before(pid, latest.point_for(pid).time)
        self._note_saved_states(self.now)

    def extra_metrics(self) -> Dict[str, float]:
        return {
            "avg_saved_states": (self._saved_area + self._saved_level * (
                self.now - self._saved_since)) / (self.now or 1e-300),
            "acceptance_tests": float(self.acceptance_tests),
            "errors_injected": float(self.errors_injected),
        }
