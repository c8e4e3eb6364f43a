"""Checkpoint storage: saved states, lookup, purging and space accounting.

A :class:`CheckpointStore` retains the saved state of checkpoints recorded in the
history (regular recovery points, pseudo recovery points, and the implicit
initial states).  The store also implements the space-reclamation rule of
Section 4: under the PRP scheme, once a new recovery point is established, all old
RPs and PRPs other than those participating in the current pseudo recovery lines
can be purged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.history import (CP_CONTAMINATED, CP_ERROR_ORIGIN, CP_INDEX,
                                CP_KIND, CP_ORIGIN, CP_TIME, CP_WORK)
from repro.core.types import CheckpointKind, ProcessId, RecoveryPoint

__all__ = ["SavedState", "CheckpointStore"]

_REGULAR = CheckpointKind.REGULAR
_PSEUDO = CheckpointKind.PSEUDO
_INITIAL = CheckpointKind.INITIAL


@dataclass(frozen=True)
class SavedState:
    """The payload saved at a checkpoint, as the store's readers see it.

    The store keeps checkpoint rows; a :class:`SavedState` is built from one
    on each read, so two reads of one state are equal but not identical.
    Equality compares every field.

    Attributes
    ----------
    process, index:
        Identity of the checkpoint (matches the corresponding
        :class:`~repro.core.types.RecoveryPoint` in the history).
    time:
        Simulation time of the save.
    kind:
        Regular RP, pseudo RP or initial state.
    work_done:
        Useful work the process had completed when the state was saved (restoring
        the state resets the work counter to this value).
    contaminated:
        Whether an undetected error was present in the process state when it was
        saved.  Regular RPs are clean with a perfect acceptance test; PRPs can be
        contaminated, which is exactly why a pseudo recovery line may need to be
        abandoned (Section 4).
    error_origin:
        Originating process of the contamination (meaningful when contaminated).
    size:
        Abstract size of the saved state (bytes or words); used only for storage
        accounting.
    origin:
        For PRPs, the ``(process, index)`` of the triggering RP.
    """

    process: ProcessId
    index: int
    time: float
    kind: CheckpointKind
    work_done: float
    contaminated: bool = False
    error_origin: Optional[ProcessId] = None
    size: float = 1.0
    origin: Optional[Tuple[ProcessId, int]] = None

    def matches(self, rp: RecoveryPoint) -> bool:
        """Whether this saved state corresponds to history checkpoint *rp*."""
        return (self.process == rp.process and self.index == rp.index
                and self.kind is rp.kind)


class CheckpointStore:
    """Per-process collections of saved states with purge rules and accounting.

    The store indexes checkpoint *rows* — the tuples a
    :class:`~repro.core.history.HistoryDiagram` keeps (``CP_*`` positions) —
    so a runtime's history and store share one record per checkpoint.
    :class:`SavedState` values are built only for the public readers.

    The Section 4 purge is incremental.  Between two purges the store notes
    which processes took a regular checkpoint, which PRPs arrived, and which
    recovery points stopped being their owner's latest; a purge then visits
    only those, so its cost is O(n) per new recovery point rather than a scan
    of every retained state.
    """

    def __init__(self, n_processes: int, *, state_size: float = 1.0) -> None:
        if n_processes < 1:
            raise ValueError("need at least one process")
        if state_size <= 0.0:
            raise ValueError("state_size must be positive")
        self.n = int(n_processes)
        self.state_size = float(state_size)
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

    def save(self, rp: RecoveryPoint, *, work_done: float,
             contaminated: bool = False, error_origin: Optional[ProcessId] = None
             ) -> SavedState:
        """Record the saved state for history checkpoint *rp*."""
        row = (rp.time, rp.kind, rp.index, rp.origin, float(work_done),
               bool(contaminated), error_origin)
        self.add(rp.process, row)
        return self._view(rp.process, row)

    # ------------------------------------------------------------------ lookup
    def _view(self, process: ProcessId, row: tuple) -> SavedState:
        return SavedState(process=process, index=row[CP_INDEX],
                          time=row[CP_TIME], kind=row[CP_KIND],
                          work_done=row[CP_WORK],
                          contaminated=row[CP_CONTAMINATED],
                          error_origin=row[CP_ERROR_ORIGIN],
                          size=self.state_size, origin=row[CP_ORIGIN])

    def retains(self, process: ProcessId, row: tuple) -> bool:
        """Whether checkpoint *row* of *process* is still stored."""
        return self._states[process].get(row[CP_INDEX]) is row

    def lookup(self, rp: RecoveryPoint) -> SavedState:
        """Saved state for history checkpoint *rp* (raises KeyError if purged)."""
        try:
            row = self._states[rp.process][rp.index]
        except KeyError as exc:
            raise KeyError(f"no saved state for {rp.label} "
                           f"(purged or never recorded)") from exc
        if row[CP_KIND] is not rp.kind:
            raise KeyError(f"stored state for index {rp.index} of P{rp.process + 1} "
                           f"does not match {rp.label}")
        return self._view(rp.process, row)

    def get(self, process: ProcessId, index: int) -> Optional[SavedState]:
        row = self._states[process].get(index)
        return None if row is None else self._view(process, row)

    def states_of(self, process: ProcessId) -> List[SavedState]:
        """All retained states of *process*, oldest first."""
        slot = self._states[process]
        return [self._view(process, slot[i]) for i in sorted(slot)]

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

    def latest_regular(self, process: ProcessId,
                       before: float = float("inf")) -> SavedState:
        """Most recent regular RP (or the initial state) of *process* before *before*."""
        return self._view(process, self.latest_regular_row(process, before))

    def pseudo_for_origin(self, process: ProcessId,
                          origin: Tuple[ProcessId, int]) -> Optional[SavedState]:
        """The PRP implanted in *process* for the given triggering RP, if retained."""
        for owner, row in self._prps.get(tuple(origin), ()):
            if owner == process and self.retains(owner, row):
                return self._view(owner, row)
        return None

    # ------------------------------------------------------------------ accounting
    def count(self, process: Optional[ProcessId] = None) -> int:
        """Number of retained saved states (per process or total).

        The total is a maintained counter — every checkpoint updates the
        storage-level monitor, so this must not re-scan the per-process dicts.
        """
        if process is not None:
            return len(self._states[process])
        return self._count

    def total_size(self) -> float:
        """Total retained storage (sum of state sizes)."""
        return sum(self.state_size for slot in self._states for _ in slot)

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
