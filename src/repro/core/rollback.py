"""Rollback propagation and domino-effect analysis.

When a process fails its acceptance test (or detects an error), it rolls back to a
previous checkpoint.  Because of inter-process communication the rollback can force
other processes back as well — *rollback propagation* — and in the worst case the
avalanche (the *domino effect*) pushes every process to its beginning.  This module
computes, for a given history and failure, the restart point of every process, the
per-process and maximum rollback distances, and whether the domino effect occurred.

The algorithm is the standard fixpoint over "orphan" interactions: if process ``i``
restarts at time ``r_i``, every interaction it participated in after ``r_i`` is
invalidated, and each peer ``j`` of such an interaction must restart at a checkpoint
taken *before* that interaction; iterate until no new invalidation appears.  This is
exactly the propagation the paper illustrates with Figure 1 (P1 fails AT₁⁴, the
system restarts from recovery line RL₂).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.history import CP_KIND, CP_TIME, HistoryDiagram
from repro.core.types import (
    CheckpointKind,
    Interaction,
    ProcessId,
    RecoveryPoint,
)

__all__ = ["RollbackResult", "propagate_rollback", "rollback_distance",
           "is_domino", "rollback_rows"]

_INITIAL = CheckpointKind.INITIAL
_PSEUDO = CheckpointKind.PSEUDO


@dataclass(frozen=True)
class RollbackResult:
    """Outcome of a rollback-propagation computation.

    Attributes
    ----------
    failed_process:
        The process whose error/acceptance-test failure started the rollback.
    failure_time:
        Time at which the failure was detected.
    restart_points:
        Checkpoint each process restarts from.  Processes that do not need to roll
        back are absent.
    affected:
        Ids of all processes forced to roll back (always includes the failed one).
    iterations:
        Number of fixpoint sweeps the propagation needed.
    """

    failed_process: ProcessId
    failure_time: float
    restart_points: Dict[ProcessId, RecoveryPoint]
    affected: Tuple[ProcessId, ...]
    iterations: int
    invalidated_interactions: Tuple[Interaction, ...] = field(default=())

    def restart_time(self, process: ProcessId) -> float:
        """Restart time of *process* (``failure_time`` if it was not affected)."""
        rp = self.restart_points.get(process)
        return rp.time if rp is not None else self.failure_time

    def distance(self, process: ProcessId) -> float:
        """Rollback distance of *process*: computation discarded by its rollback."""
        return self.failure_time - self.restart_time(process)

    @property
    def max_distance(self) -> float:
        """The paper's rollback distance: supremum of the per-process distances."""
        return max((self.distance(p) for p in self.affected), default=0.0)

    @property
    def total_lost_computation(self) -> float:
        """Sum of the per-process discarded computation intervals."""
        return sum(self.distance(p) for p in self.affected)

    @property
    def domino(self) -> bool:
        """True when at least one affected process was pushed back to its start."""
        return any(rp.kind is CheckpointKind.INITIAL
                   for rp in self.restart_points.values())

    def crossed_checkpoints(self, history: HistoryDiagram,
                            process: ProcessId) -> int:
        """Number of checkpoints of *process* discarded by the rollback."""
        if process not in self.restart_points:
            return 0
        restart = self.restart_points[process].time
        return sum(1 for rp in history.checkpoints(process)
                   if restart < rp.time <= self.failure_time
                   and rp.kind is not CheckpointKind.INITIAL)


def rollback_rows(history: HistoryDiagram, failed_process: ProcessId,
                  failure_time: float, dead: Sequence[bool],
                  usable: Optional[Callable[[ProcessId, tuple], bool]] = None,
                  max_iterations: int = 10_000
                  ) -> Tuple[Dict[ProcessId, tuple], List[int], int]:
    """The rollback-propagation fixpoint over the history's columns.

    Returns ``(restart, invalidated, iterations)``: the checkpoint row each
    affected process restarts from (in the order the propagation reached
    them), the column positions of the interactions the rollback
    invalidates, and the number of sweeps.  *dead* flags interactions (by
    column position) that an earlier rollback already invalidated; it is read,
    never written.  *usable* selects restart rows beyond the always-usable
    initial state; by default regular recovery points only.
    """
    def latest_usable(process: ProcessId, pos: int) -> tuple:
        # Walk back from *pos* to the most recent usable row.  Among usable
        # rows sharing that maximal time the walk keeps going, so the
        # *first-inserted* one wins.
        rows = history.checkpoint_rows(process)[0]
        best = None
        for idx in range(pos - 1, -1, -1):
            row = rows[idx]
            if best is not None and row[CP_TIME] < best[CP_TIME]:
                break
            kind = row[CP_KIND]
            if kind is _INITIAL or (kind is not _PSEUDO if usable is None
                                    else usable(process, row)):
                best = row
        assert best is not None, "initial state must always be usable"
        return best

    # horizon[p]: time up to which process p's computation is currently valid.
    horizon = [failure_time] * history.n_processes
    restart: Dict[ProcessId, tuple] = {}

    # The failed process must discard the state at the failure point itself, hence
    # the inclusive latest checkpoint at or before the failure time.
    times = history.checkpoint_rows(failed_process)[1]
    first = latest_usable(failed_process,
                          bisect.bisect_right(times, failure_time))
    restart[failed_process] = first
    horizon[failed_process] = first[CP_TIME]

    # Only interactions *sent* at or before the failure can ever be orphans
    # (receive_time >= send time, and both orphan tests cap the endpoint at
    # failure_time); the columns are sorted by send time, so the sweep window
    # is a bisect cut.
    send_col, recv_col, src_col, dst_col, _ = history.interaction_columns()
    hi = bisect.bisect_right(send_col, failure_time)
    # What this propagation invalidates; *dead* holds the earlier rollbacks'.
    marked: Set[int] = set()
    invalidated: List[int] = []
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("rollback propagation did not converge")
        changed = False
        # An interaction sent and received no later than every horizon is no
        # orphan, and nothing changes before the sweep meets its first orphan:
        # with sorted receive times that whole prefix is skipped exactly.
        lo = (bisect.bisect_right(recv_col, min(horizon), 0, hi)
              if history.receive_sorted else 0)
        for k, send, recv, src, dst, was_dead in zip(
                range(lo, hi), send_col[lo:hi], recv_col[lo:hi],
                src_col[lo:hi], dst_col[lo:hi], dead[lo:hi]):
            if was_dead or k in marked:
                continue
            # The interaction is an orphan if either endpoint falls in discarded
            # computation of its participant.
            if not (send > horizon[src]
                    or (recv > horizon[dst] and recv <= failure_time)):
                continue
            marked.add(k)
            invalidated.append(k)
            # Both participants must restart before their endpoint of the
            # interaction (the message and its effects are discarded).  The
            # candidate lies strictly before the endpoint, hence before the
            # horizon, so it always moves the horizon back.
            for process, endpoint in ((src, send), (dst, recv)):
                if horizon[process] >= endpoint:
                    candidate = latest_usable(process, bisect.bisect_left(
                        history.checkpoint_rows(process)[1], endpoint))
                    restart[process] = candidate
                    horizon[process] = candidate[CP_TIME]
                    changed = True
    return restart, invalidated, iterations


def propagate_rollback(history: HistoryDiagram, failed_process: ProcessId,
                       failure_time: float,
                       *,
                       checkpoint_filter: Optional[
                           Callable[[RecoveryPoint], bool]] = None,
                       excluded_interactions: Optional[Set[Interaction]] = None,
                       max_iterations: int = 10_000) -> RollbackResult:
    """Compute the rollback propagation triggered by a failure.

    Runs :func:`rollback_rows` and presents its rows as
    :class:`~repro.core.types.RecoveryPoint` and
    :class:`~repro.core.types.Interaction` objects.

    Parameters
    ----------
    history:
        Execution history up to (at least) the failure time.
    failed_process, failure_time:
        Which process failed and when.
    checkpoint_filter:
        Optional predicate selecting which checkpoints are *usable* as restart
        states.  The asynchronous scheme passes regular RPs only; the PRP scheme
        passes a predicate admitting uncontaminated pseudo recovery points.  The
        initial state is always usable.
    excluded_interactions:
        Interactions that must be ignored by the propagation (typically because a
        previous rollback already invalidated them — the messages were logically
        un-sent and cannot orphan anybody any more).
    max_iterations:
        Safety bound on fixpoint sweeps.
    """
    if not (0 <= failed_process < history.n_processes):
        raise ValueError(f"failed process {failed_process} out of range")
    if failure_time < 0.0:
        raise ValueError("failure time must be non-negative")
    usable = None
    if checkpoint_filter is not None:
        def usable(process: ProcessId, row: tuple) -> bool:
            return checkpoint_filter(history.point(process, row))
    count = len(history.interaction_columns()[0])
    excluded = excluded_interactions or set()
    dead = [history.interaction(k) in excluded for k in range(count)] \
        if excluded else [False] * count
    restart, invalidated, iterations = rollback_rows(
        history, failed_process, failure_time, dead, usable, max_iterations)
    return RollbackResult(
        failed_process=failed_process, failure_time=failure_time,
        restart_points={p: history.point(p, row) for p, row in restart.items()},
        affected=tuple(sorted(restart)), iterations=iterations,
        invalidated_interactions=tuple(sorted(
            {history.interaction(k) for k in invalidated})))


def rollback_distance(history: HistoryDiagram, failed_process: ProcessId,
                      failure_time: float, **kwargs) -> float:
    """Shorthand: the supremum rollback distance for the given failure."""
    return propagate_rollback(history, failed_process, failure_time,
                              **kwargs).max_distance


def is_domino(history: HistoryDiagram, failed_process: ProcessId,
              failure_time: float, **kwargs) -> bool:
    """Whether the failure triggers the domino effect (rollback to a beginning)."""
    return propagate_rollback(history, failed_process, failure_time, **kwargs).domino
