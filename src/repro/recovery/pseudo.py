"""Pseudo recovery points (Section 4) as a running system.

The implantation protocol:

1. When ``P_i`` establishes a recovery point ``RP_i^j`` it broadcasts an
   implantation request.
2. Every other process ``P_{i'}`` records its state as ``PRP_{i'}^{ij}`` upon
   completing its current instruction — *without* an acceptance test — and
   broadcasts a commitment.
3. All processes continue their normal tasks.

Rollback (the paper's algorithm, step numbers preserved):

1. An error is found in ``P_i``; set the rollback pointer ``p := i``.
2. ``P_p`` rolls back to its previous recovery point ``RP_p``; every process
   affected by that rollback rolls back to its pseudo recovery point
   ``PRP^{p}`` implanted for that RP.
3. For every affected process, if its rollback has not passed its most recent
   recovery point, set ``p`` to it and repeat from 2 (this is what bounds the
   propagation when the PRP contents may have been contaminated).

Storage is reclaimed with the Section 4 rule: old RPs/PRPs outside the current
pseudo recovery lines are purged whenever a new recovery point is established.
The per-RP time overhead is ``(n−1)·t_r`` — each of the other processes pays one
state save.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set

from repro.core.history import CP_INDEX, CP_TIME
from repro.core.types import CheckpointKind, ProcessId
from repro.recovery.base import RecoverySchemeRuntime
from repro.workloads.spec import WorkloadSpec

__all__ = ["PseudoRecoveryPointRuntime"]


class PseudoRecoveryPointRuntime(RecoverySchemeRuntime):
    """The paper's proposed pseudo-recovery-point scheme."""

    scheme_name = "pseudo-recovery-points"

    def __init__(self, workload: WorkloadSpec, seed: Optional[int] = None, *,
                 purge_storage: bool = True) -> None:
        super().__init__(workload, seed)
        self.purge_storage = bool(purge_storage)
        self._executors = self._block_executors()
        self._implantation_overhead = 0.0
        self.prp_implanted = 0

    # ------------------------------------------------------------------ hooks
    def on_block_boundary(self, pid: int) -> None:
        if not self._block_passes(pid):
            return
        # One instant, so one update of the saved-states level covers it all.
        now, cost = self.engine._now, self._checkpoint_cost
        self._broadcast_implantation(
            pid, self._save(pid, now, CheckpointKind.REGULAR, None, cost), now)
        if self.purge_storage:
            self.store.purge_obsolete_pseudo_lines()
        self._note_saved_states(now)

    def _broadcast_implantation(self, origin_pid: int, row: tuple,
                                now: float) -> None:
        """Steps 1–2 of the implantation algorithm: every other unfinished
        process saves a PRP "upon the completion of the current instruction",
        at once at the granularity of this simulation, so as one batch."""
        origin = (origin_pid, row[CP_INDEX])
        cost = self._checkpoint_cost
        for other in range(self.n):
            if other == origin_pid or self._done[other]:
                continue
            self._save(other, now, CheckpointKind.PSEUDO, origin, cost)
            self._implantation_overhead += cost
            self.prp_implanted += 1

    def on_error_detected(self, pid: int) -> None:
        assignment = self._plan_pseudo_rollback(pid, self.now)
        # Everything the affected processes did after their restart points is
        # discarded; invalidated interactions are those touching a rolled-back
        # window.
        self.apply_rollback(assignment,
                            self._invalidated_interactions(assignment))

    # ------------------------------------------------------------------ planning
    def _plan_pseudo_rollback(self, failed_pid: int, failure_time: float
                              ) -> Dict[ProcessId, tuple]:
        """The Section 4 rollback algorithm over the recorded history."""
        history = self.history
        assignment: Dict[ProcessId, tuple] = {}
        visited: Set[int] = set()
        pending = [failed_pid]

        while pending:
            p = pending.pop()
            if p in visited:
                continue
            visited.add(p)
            # Step 2a: P_p rolls back to its previous (regular) recovery point.
            # A PRP of the failed process itself offers no protection, so only
            # regular RPs and the initial state qualify here.
            rp_p = history.latest_row(p, failure_time, failed_process=p)
            current = assignment.get(p)
            if current is None or rp_p[CP_TIME] < current[CP_TIME]:
                assignment[p] = rp_p
            # Step 2b: processes affected by P_p's rollback restart at their PRPs
            # implanted for rp_p.
            trigger = assignment[p]
            for j in self._affected_by(p, trigger[CP_TIME], failure_time):
                target = self._pseudo_restart_point(j, p, trigger)
                current_j = assignment.get(j)
                if current_j is None or target[CP_TIME] < current_j[CP_TIME]:
                    assignment[j] = target
                # Step 3: if P_j has not rolled past its most recent RP, the
                # propagation continues through it.
                latest_rp_j = history.latest_row(j, failure_time,
                                                 failed_process=j)
                if assignment[j][CP_TIME] > latest_rp_j[CP_TIME] \
                        and j not in visited:
                    pending.append(j)
        return assignment

    def _affected_by(self, p: int, restart_time: float,
                     failure_time: float) -> Set[int]:
        """Processes that interacted with *p* inside its discarded window."""
        _send, _recv, src, dst, _dead = self.history.interaction_columns()
        affected: Set[int] = set()
        for k in self.history.involving(p, restart_time, failure_time,
                                        live_only=True):
            affected.add(dst[k] if src[k] == p else src[k])
        affected.discard(p)
        return affected

    def _pseudo_restart_point(self, process: int, trigger_process: int,
                              trigger: tuple) -> tuple:
        """The PRP implanted in *process* for *trigger* (with fallbacks)."""
        row = self.history.pseudo_row(process,
                                      (trigger_process, trigger[CP_INDEX]))
        if row is not None:
            return row
        # No PRP was implanted (e.g. the trigger is the initial state, or the
        # process had already finished): fall back to the latest verified
        # checkpoint not newer than the trigger.
        return self.history.latest_row(process, trigger[CP_TIME],
                                       failed_process=process)

    def _invalidated_interactions(self, assignment: Dict[ProcessId, tuple]
                                  ) -> List[int]:
        if not assignment:
            return []
        # An interaction only qualifies when its send time exceeds some restart
        # point (hence the earliest one) and does not exceed "now".
        earliest = min(row[CP_TIME] for row in assignment.values())
        send, _recv, src, dst, dead = self.history.interaction_columns()
        invalidated = []
        for k in range(bisect.bisect_right(send, earliest),
                       bisect.bisect_right(send, self.now)):
            if dead[k]:
                continue
            for pid, row in assignment.items():
                if (src[k] == pid or dst[k] == pid) and send[k] > row[CP_TIME]:
                    invalidated.append(k)
                    break
        return invalidated

    # ------------------------------------------------------------------ reporting
    def extra_metrics(self) -> Dict[str, float]:
        return {
            "prp_implanted": float(self.prp_implanted),
            "implantation_overhead": self._implantation_overhead,
        }
