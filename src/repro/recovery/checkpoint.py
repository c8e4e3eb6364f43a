"""Checkpoint storage: which saved states a run retains, purging and accounting.

A :class:`CheckpointStore` retains the saved state of checkpoints recorded in the
history (regular recovery points, pseudo recovery points, and the implicit
initial states); a saved state is the history row itself, so the store holds
no copy of it.  The store also implements the space-reclamation rule of
Section 4: under the PRP scheme, once a new recovery point is established, all old
RPs and PRPs other than those participating in the current pseudo recovery lines
can be purged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.history import CP_INDEX, CP_KIND, CP_ORIGIN, CP_TIME
from repro.core.types import CheckpointKind, ProcessId

__all__ = ["CheckpointStore"]

_REGULAR = CheckpointKind.REGULAR
_PSEUDO = CheckpointKind.PSEUDO
_INITIAL = CheckpointKind.INITIAL


class CheckpointStore:
    """Per-process collections of saved states with purge rules and accounting.

    The store indexes checkpoint *rows* — the tuples a
    :class:`~repro.core.history.HistoryDiagram` keeps (``CP_*`` positions) —
    so a runtime's history and store share one record per checkpoint.

    The Section 4 purge is incremental.  Between two purges the store notes
    which processes took a regular checkpoint, which PRPs arrived, and which
    recovery points stopped being their owner's latest; a purge then visits
    only those, so its cost is O(n) per new recovery point rather than a scan
    of every retained state.
    """

    def __init__(self, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        self.n = int(n_processes)
        self._states: List[Dict[int, tuple]] = [dict() for _ in range(self.n)]
        self._count = 0          # running total across processes, O(1) to read
        # Most recent non-pseudo row per process (first-inserted among equal
        # times).
        self._latest: List[Optional[tuple]] = [None] * self.n
        self._peak_count = 0
        self._total_saves = 0
        # Section 4 bookkeeping: origin -> [(process, PRP row)] (entries may
        # outlive their state; membership is checked by identity), and what
        # changed since the last purge.
        self._prps: Dict[Tuple[ProcessId, int], List[Tuple[ProcessId, tuple]]] = {}
        self._dirty: Set[ProcessId] = set()
        self._fresh: List[Tuple[ProcessId, tuple]] = []
        self._stale: List[Tuple[ProcessId, int]] = []
        # Every process starts with a clean initial state (work 0, index 0).
        for pid in range(self.n):
            self.add(pid, (0.0, _INITIAL, 0, None, 0.0, False, None))

    # ------------------------------------------------------------------ recording
    def add(self, process: ProcessId, row: tuple) -> None:
        """Retain checkpoint *row* of *process* (a history row)."""
        slot = self._states[process]
        index = row[CP_INDEX]
        if index not in slot:
            self._count += 1
        slot[index] = row
        if row[CP_KIND] is _PSEUDO:
            self._fresh.append((process, row))
            self._prps.setdefault(row[CP_ORIGIN], []).append((process, row))
        else:
            cur = self._latest[process]
            if cur is None or row[CP_TIME] > cur[CP_TIME]:
                self._set_latest(process, row)
            elif index == cur[CP_INDEX]:
                # The tracked state was overwritten in place; recompute.
                self._rescan_latest(process)
            self._dirty.add(process)
        self._total_saves += 1
        if self._count > self._peak_count:
            self._peak_count = self._count

    def _set_latest(self, process: ProcessId, row: Optional[tuple]) -> None:
        old = self._latest[process]
        if self._prps and old is not None and old is not row \
                and old[CP_KIND] is _REGULAR:
            origin = (process, old[CP_INDEX])
            if origin in self._prps:
                self._stale.append(origin)
        self._latest[process] = row

    def _rescan_latest(self, process: ProcessId) -> None:
        best: Optional[tuple] = None
        for row in self._states[process].values():
            if row[CP_KIND] is not _PSEUDO and (
                    best is None or row[CP_TIME] > best[CP_TIME]):
                best = row
        self._set_latest(process, best)

    # ------------------------------------------------------------------ lookup
    def retains(self, process: ProcessId, row: tuple) -> bool:
        """Whether checkpoint *row* of *process* is still stored."""
        return self._states[process].get(row[CP_INDEX]) is row

    def latest_regular_row(self, process: ProcessId,
                           before: float = float("inf")) -> tuple:
        """Row of the most recent regular RP (or initial state) before *before*."""
        cur = self._latest[process]
        if cur is not None and cur[CP_TIME] <= before:
            # The overall latest also wins any window that contains it.
            return cur
        best: Optional[tuple] = None
        for row in self._states[process].values():
            if row[CP_KIND] is not _PSEUDO and row[CP_TIME] <= before and (
                    best is None or row[CP_TIME] > best[CP_TIME]):
                best = row
        assert best is not None, "initial state can never be purged"
        return best

    # ------------------------------------------------------------------ accounting
    def count(self, process: Optional[ProcessId] = None) -> int:
        """Number of retained saved states (per process or total).

        The total is a maintained counter — every checkpoint updates the
        runtime's saved-states level, so this must not re-scan the
        per-process dicts.
        """
        if process is not None:
            return len(self._states[process])
        return self._count

    @property
    def peak_count(self) -> int:
        """Largest number of simultaneously retained states observed."""
        return self._peak_count

    @property
    def total_saves(self) -> int:
        return self._total_saves

    # ------------------------------------------------------------------ purging
    def purge_before(self, process: ProcessId, time: float,
                     *, keep_latest_regular: bool = True) -> int:
        """Discard states of *process* saved strictly before *time*.

        With ``keep_latest_regular`` the most recent regular RP is always retained
        (a process must never lose its restart capability).
        """
        keeper = self.latest_regular_row(process) if keep_latest_regular else None
        slot = self._states[process]
        doomed = [idx for idx, row in slot.items()
                  if row[CP_KIND] is not _INITIAL and row[CP_TIME] < time
                  and row is not keeper]
        for idx in doomed:
            del slot[idx]
        self._count -= len(doomed)
        cur = self._latest[process]
        if doomed and (cur is None or not self.retains(process, cur)):
            self._rescan_latest(process)
        return len(doomed)

    def purge_obsolete_pseudo_lines(self) -> int:
        """Section 4 space reclamation.

        Keep, for every process ``i``: its most recent regular RP, and every PRP
        whose triggering RP is currently the most recent RP of its owner.  All
        other RPs and PRPs are purged.  Returns the number of states discarded.

        Only what changed since the previous purge can have become obsolete:
        the older regular RPs of processes that took a new one, the PRPs of
        recovery points that stopped being their owner's latest, and PRPs that
        arrived since (checked against the live origins).
        """
        states, latest = self._states, self._latest
        doomed: List[Tuple[ProcessId, tuple]] = []
        for pid in self._dirty:
            keeper = latest[pid]
            doomed.extend((pid, row) for row in states[pid].values()
                          if row is not keeper and row[CP_KIND] is _REGULAR)
        for origin in self._stale:
            cur = latest[origin[0]]
            if cur[CP_KIND] is not _REGULAR or cur[CP_INDEX] != origin[1]:
                doomed.extend(self._prps.pop(origin, ()))
        for entry in self._fresh:
            origin = entry[1][CP_ORIGIN]
            cur = latest[origin[0]]
            if cur[CP_KIND] is not _REGULAR or cur[CP_INDEX] != origin[1]:
                doomed.append(entry)
        purged = 0
        for pid, row in doomed:
            slot = states[pid]
            if slot.get(row[CP_INDEX]) is row:
                del slot[row[CP_INDEX]]
                purged += 1
        self._count -= purged
        self._dirty.clear()
        self._fresh.clear()
        self._stale.clear()
        return purged
