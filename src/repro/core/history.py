"""Execution-history diagrams (the paper's Figure 1).

A :class:`HistoryDiagram` records, per process, the checkpoints (recovery points and
pseudo recovery points) it established and, globally, the interactions between
processes.  All recovery-line detection and rollback-propagation analysis operates
on this structure, whether the history was produced by the full discrete-event
simulator, by the model-level Monte-Carlo sampler, or built by hand in a test.

Storage is flat.  Each process owns a time-sorted list of checkpoint *rows* —
plain tuples laid out as ``(time, kind, index, origin, work_done,
contaminated, error_origin)`` (the ``CP_*`` positions below) — so one record
carries both the history entry and the state it saved; the runtimes' checkpoint
store indexes the same tuples.  Interactions live in parallel columns (send
time, receive time, source, target, and a *dead* flag that a rollback sets
when it invalidates the message).  :class:`~repro.core.types.RecoveryPoint` and
:class:`~repro.core.types.Interaction` objects are built only when a reader
asks for them.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Tuple

from repro.core.types import (
    CheckpointKind,
    Interaction,
    ProcessId,
    RecoveryPoint,
)

__all__ = ["HistoryDiagram", "CP_TIME", "CP_KIND", "CP_INDEX", "CP_ORIGIN",
           "CP_WORK", "CP_CONTAMINATED", "CP_ERROR_ORIGIN"]

#: Positions in a checkpoint row.
CP_TIME, CP_KIND, CP_INDEX, CP_ORIGIN, CP_WORK, CP_CONTAMINATED, \
    CP_ERROR_ORIGIN = range(7)

_REGULAR = CheckpointKind.REGULAR
_PSEUDO = CheckpointKind.PSEUDO
_INITIAL = CheckpointKind.INITIAL


class HistoryDiagram:
    """Recorded history of ``n`` cooperating processes.

    The structure is append-friendly (events arrive in time order from the
    simulator) but also supports out-of-order insertion for hand-built test
    fixtures; per-process checkpoint rows and the interaction columns are kept
    sorted by time (equal times in insertion order).
    """

    def __init__(self, n_processes: int) -> None:
        n_processes = int(n_processes)
        if n_processes < 1:
            raise ValueError("a history needs at least one process")
        self._n = n_processes
        # Every process implicitly starts with a verified initial state at t = 0.
        self._rows: List[List[tuple]] = [
            [(0.0, _INITIAL, 0, None, 0.0, False, None)]
            for _ in range(n_processes)]
        self._times: List[List[float]] = [[0.0] for _ in range(n_processes)]
        self._counters: List[int] = [1] * n_processes
        # (process, origin) -> the earliest PRP row of *process* for that origin.
        self._pseudo: dict = {}
        self._it_time: List[float] = []
        self._it_recv: List[float] = []
        self._it_src: List[int] = []
        self._it_dst: List[int] = []
        self._it_dead: List[bool] = []
        #: Whether the receive-time column is sorted too (true for every
        #: history recorded in time order with a constant message latency).
        self.receive_sorted = True

    # ------------------------------------------------------------------ mutation
    def append_checkpoint(self, process: ProcessId, time: float,
                          kind: CheckpointKind, origin=None,
                          work_done: float = 0.0, contaminated: bool = False,
                          error_origin: Optional[ProcessId] = None) -> tuple:
        """Record a checkpoint row for *process* and return it (unvalidated).

        The runtimes' per-checkpoint entry point: the caller guarantees a
        valid process, a non-negative time and an origin for pseudo points.
        """
        index = self._counters[process]
        self._counters[process] = index + 1
        row = (time, kind, index, origin, work_done, contaminated, error_origin)
        times = self._times[process]
        if time >= times[-1]:
            # Live simulations insert in time order; bisect_right lands at the
            # end for a time >= the last entry, so this is the same position.
            times.append(time)
            self._rows[process].append(row)
        else:
            pos = bisect.bisect_right(times, time)
            times.insert(pos, time)
            self._rows[process].insert(pos, row)
        if kind is _PSEUDO:
            key = (process, origin)
            first = self._pseudo.get(key)
            if first is None or time < first[CP_TIME]:
                self._pseudo[key] = row
        return row

    def add_recovery_point(self, process: ProcessId, time: float,
                           kind: CheckpointKind = CheckpointKind.REGULAR,
                           origin: Optional[Tuple[ProcessId, int]] = None
                           ) -> RecoveryPoint:
        """Record a checkpoint for *process* at *time* and return it."""
        self._check_process(process)
        if time < 0.0:
            raise ValueError("recovery point time must be non-negative")
        if kind is _PSEUDO and origin is None:
            raise ValueError("pseudo recovery points must record their origin RP")
        if origin is not None:
            origin = tuple(origin)
        return self.point(process, self.append_checkpoint(process, float(time),
                                                          kind, origin))

    def append_interaction(self, source: ProcessId, target: ProcessId,
                           time: float, receive_time: float) -> None:
        """Record one interaction row (unvalidated; see :meth:`add_interaction`)."""
        times = self._it_time
        if not times or time >= times[-1]:
            if times and receive_time < self._it_recv[-1]:
                self.receive_sorted = False
            times.append(time)
            self._it_recv.append(receive_time)
            self._it_src.append(source)
            self._it_dst.append(target)
            self._it_dead.append(False)
        else:
            self.receive_sorted = False
            pos = bisect.bisect_right(times, time)
            times.insert(pos, time)
            self._it_recv.insert(pos, receive_time)
            self._it_src.insert(pos, source)
            self._it_dst.insert(pos, target)
            self._it_dead.insert(pos, False)

    def add_interaction(self, source: ProcessId, target: ProcessId, time: float,
                        receive_time: Optional[float] = None,
                        message: object = None) -> Interaction:
        """Record an interaction (message) from *source* to *target*."""
        self._check_process(source)
        self._check_process(target)
        interaction = Interaction(time=float(time), source=source, target=target,
                                  receive_time=float(receive_time)
                                  if receive_time is not None else -1.0,
                                  message=message)
        self.append_interaction(source, target, interaction.time,
                                interaction.receive_time)
        return interaction

    def kill_interactions(self, positions: Iterable[int]) -> None:
        """Flag interactions (by column position) as invalidated by a rollback."""
        dead = self._it_dead
        for k in positions:
            dead[k] = True

    # ------------------------------------------------------------------ columns
    def checkpoint_rows(self, process: ProcessId
                        ) -> Tuple[List[tuple], List[float]]:
        """The time-ordered checkpoint rows of *process* and their times.

        Both lists alias internal storage (zero-copy); callers must treat them
        as read-only.  The parallel times list exists so callers can bisect.
        """
        return self._rows[process], self._times[process]

    def interaction_columns(self) -> Tuple[List[float], List[float], List[int],
                                           List[int], List[bool]]:
        """Send times, receive times, sources, targets and dead flags (aliases)."""
        return (self._it_time, self._it_recv, self._it_src, self._it_dst,
                self._it_dead)

    def pseudo_row(self, process: ProcessId, origin) -> Optional[tuple]:
        """The earliest PRP row of *process* implanted for *origin*, if any."""
        return self._pseudo.get((process, origin))

    def latest_row(self, process: ProcessId, time: float,
                   failed_process: Optional[ProcessId] = None) -> tuple:
        """Latest row of *process* at or before *time* usable for a failure.

        Verified checkpoints (regular RPs and the initial state) are always
        usable; a PRP only when its triggering RP belongs to *failed_process*
        (see :meth:`repro.core.types.RecoveryPoint.is_usable_for`).
        """
        rows = self._rows[process]
        for idx in range(bisect.bisect_right(self._times[process], time) - 1,
                         -1, -1):
            row = rows[idx]
            if row[CP_KIND] is _PSEUDO and (
                    failed_process is None
                    or row[CP_ORIGIN][0] != failed_process):
                continue
            return row
        # Unreachable: index 0 is always the initial state which is verified.
        raise AssertionError("history invariant violated: missing initial state")

    @staticmethod
    def point(process: ProcessId, row: tuple) -> RecoveryPoint:
        """The :class:`RecoveryPoint` view of checkpoint *row* of *process*."""
        return RecoveryPoint(time=row[CP_TIME], process=process,
                             index=row[CP_INDEX], kind=row[CP_KIND],
                             origin=row[CP_ORIGIN])

    def interaction(self, k: int) -> Interaction:
        """The :class:`Interaction` view of column position *k*."""
        return Interaction(time=self._it_time[k], source=self._it_src[k],
                           target=self._it_dst[k],
                           receive_time=self._it_recv[k])

    # ------------------------------------------------------------------ inspection
    def _check_process(self, process: ProcessId) -> None:
        if not (0 <= process < self._n):
            raise ValueError(f"process {process} out of range [0, {self._n})")

    @property
    def n_processes(self) -> int:
        return self._n

    @property
    def processes(self) -> range:
        return range(self._n)

    @property
    def interactions(self) -> List[Interaction]:
        return [self.interaction(k) for k in range(len(self._it_time))]

    def checkpoints(self, process: ProcessId,
                    kinds: Optional[Iterable[CheckpointKind]] = None
                    ) -> List[RecoveryPoint]:
        """All checkpoints of *process* (optionally filtered by kind), time ordered."""
        self._check_process(process)
        rows = self._rows[process]
        if kinds is not None:
            wanted = set(kinds)
            rows = [row for row in rows if row[CP_KIND] in wanted]
        return [self.point(process, row) for row in rows]

    def recovery_points(self, process: ProcessId) -> List[RecoveryPoint]:
        """Regular recovery points of *process* (excludes PRPs and the initial state)."""
        return self.checkpoints(process, kinds=(CheckpointKind.REGULAR,))

    def interactions_between(self, a: ProcessId, b: ProcessId,
                             start: float, end: float,
                             *, closed: bool = False) -> List[Interaction]:
        """Interactions between processes *a* and *b* with send time in the window.

        The window is open ``(start, end)`` by default, matching the paper's
        "sandwiched between" condition; pass ``closed=True`` for ``[start, end]``.
        """
        self._check_process(a)
        self._check_process(b)
        lo, hi = (min(start, end), max(start, end))
        times = self._it_time
        first = (bisect.bisect_left(times, lo) if closed
                 else bisect.bisect_right(times, lo))
        last = (bisect.bisect_right(times, hi) if closed
                else bisect.bisect_left(times, hi))
        src, dst = self._it_src, self._it_dst
        return [self.interaction(k) for k in range(first, last)
                if (src[k] == a or dst[k] == a) and (src[k] == b or dst[k] == b)]

    def involving(self, process: ProcessId, start: float, end: float,
                  *, live_only: bool = False) -> List[int]:
        """Column positions of the interactions touching *process* in the window.

        An interaction counts at the endpoint of *process*: its send time for
        the sender, its receive time for the receiver, in ``(start, end]``.
        With *live_only*, interactions a rollback invalidated are skipped.
        """
        out = []
        # Sorted by send time and receive >= send: anything sent after *end*
        # can never fall in the window, and with sorted receive times neither
        # can anything received no later than *start*.
        recv, src, dst, dead = (self._it_recv, self._it_src, self._it_dst,
                                self._it_dead)
        hi = bisect.bisect_right(self._it_time, end)
        lo = bisect.bisect_right(recv, start, 0, hi) if self.receive_sorted else 0
        for k, t in zip(range(lo, hi), self._it_time[lo:hi]):
            if src[k] != process:
                if dst[k] != process:
                    continue
                t = recv[k]
            if start < t <= end and not (live_only and dead[k]):
                out.append(k)
        return out

    @property
    def end_time(self) -> float:
        """Latest timestamp recorded in the history."""
        latest = max(times[-1] for times in self._times)
        if self._it_recv:
            latest = max(latest, max(self._it_recv))
        return latest

    # ------------------------------------------------------------------ rendering
    def render_ascii(self, width: int = 72) -> str:
        """Render the history as an ASCII timeline (one row per process).

        ``o`` marks a regular recovery point, ``p`` a pseudo recovery point, ``|``
        the initial state and ``x`` an interaction endpoint.  Intended for debugging
        and the examples; not a precise plot.
        """
        horizon = max(self.end_time, 1e-9)
        scale = (width - 1) / horizon

        def col(t: float) -> int:
            return min(width - 1, int(round(t * scale)))

        rows = []
        for pid in range(self._n):
            row = [" "] * width
            row[0] = "|"
            for k in self.involving(pid, -1.0, float("inf")):
                t = (self._it_time[k] if self._it_src[k] == pid
                     else self._it_recv[k])
                row[col(t)] = "x"
            for cp in self._rows[pid]:
                if cp[CP_KIND] is _INITIAL:
                    continue
                row[col(cp[CP_TIME])] = "o" if cp[CP_KIND] is _REGULAR else "p"
            rows.append(f"P{pid + 1} " + "".join(row))
        header = f"t=0 {'.' * (width - 12)} t={horizon:.3f}"
        return "\n".join(["   " + header] + rows)

    # ------------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check internal invariants; raises :class:`AssertionError` on violation."""
        for pid in range(self._n):
            times = self._times[pid]
            assert all(times[i] <= times[i + 1] for i in range(len(times) - 1)), \
                f"checkpoints of process {pid} out of order"
            assert self._rows[pid][0][CP_KIND] is _INITIAL, \
                f"process {pid} lost its initial state"
        times = self._it_time
        assert all(times[i] <= times[i + 1] for i in range(len(times) - 1)), \
            "interactions out of order"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(str(len(rows) - 1) for rows in self._rows)
        return (f"HistoryDiagram(n={self._n}, checkpoints=[{counts}], "
                f"interactions={len(self._it_time)})")
