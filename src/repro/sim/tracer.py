"""Trace recording: from runtime callbacks to event logs and history diagrams.

The recovery-block runtimes report what happens (recovery points, pseudo recovery
points, interactions, acceptance tests, errors, rollbacks, synchronisation) to a
:class:`Tracer`.  The tracer maintains both an :class:`~repro.core.events.EventLog`
(the flat, replayable record) and a live :class:`~repro.core.history.HistoryDiagram`
(what the rollback and recovery-line algorithms consume), keeping the two
consistent by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.events import EventLog
from repro.core.history import CP_INDEX, HistoryDiagram
from repro.core.types import CheckpointKind, EventKind, ProcessId, RecoveryPoint

__all__ = ["Tracer"]


class Tracer:
    """Collects the execution history of a recovery-block run.

    The event log is materialised lazily: record calls buffer cheap tuples, and
    the full :class:`EventLog` (identical to one built eagerly — same events,
    same sequence numbers) is assembled on first access to :attr:`log`.  The
    history diagram is always live because the rollback and recovery-line
    algorithms consume it during the run, whereas the flat log is only read by
    post-run analysis — the strategy sweeps never touch it, and per-event
    ``Event`` construction is a measurable slice of the simulation cost.
    """

    def __init__(self, n_processes: int) -> None:
        self.n = int(n_processes)
        self.history = HistoryDiagram(self.n)
        self._log: Optional[EventLog] = None
        self._pending: list = []
        self._log_disabled = False

    def disable_log(self) -> None:
        """Drop event-log recording entirely (history stays live).

        For replication sweeps that only consume run reports: buffering one
        tuple plus a kwargs dict per event is pure overhead when the flat log
        is never read.  After this call, record methods update only the
        history diagram, and accessing :attr:`log` raises — a silently empty
        or partial log would be worse than a loud one.
        """
        self._log_disabled = True
        self._pending.clear()

    @property
    def log(self) -> EventLog:
        """The flat event log (materialised from the buffer on first access)."""
        if self._log_disabled:
            raise RuntimeError("the event log was disabled for this tracer "
                               "(Tracer.disable_log); only the history diagram "
                               "is available")
        if self._log is None:
            log = EventLog()
            for time, kind, process, data in self._pending:
                log.append(time, kind, process, **data)
            self._pending.clear()
            self._log = log
        return self._log

    def _record(self, time: float, kind: EventKind, process: ProcessId,
                **data: object) -> None:
        if self._log_disabled:
            return
        if self._log is not None:
            self._log.append(time, kind, process, **data)
        else:
            self._pending.append((time, kind, process, data))

    # ------------------------------------------------------------------ checkpoints
    def record_checkpoint(self, process: ProcessId, time: float,
                          kind: CheckpointKind, origin=None,
                          work_done: float = 0.0, contaminated: bool = False,
                          error_origin: Optional[ProcessId] = None) -> tuple:
        """Record a checkpoint and its saved state; returns the history row.

        The runtimes' entry point: one row carries the history entry and the
        saved state (see :mod:`repro.core.history`).
        """
        row = self.history.append_checkpoint(process, time, kind, origin,
                                             work_done, contaminated,
                                             error_origin)
        if not self._log_disabled:
            if kind is CheckpointKind.PSEUDO:
                self._record(time, EventKind.PSEUDO_RECOVERY_POINT, process,
                             index=row[CP_INDEX], origin=origin)
            else:
                self._record(time, EventKind.RECOVERY_POINT, process,
                             index=row[CP_INDEX])
        return row

    def record_recovery_point(self, process: ProcessId, time: float) -> RecoveryPoint:
        """Record a regular recovery point (post-acceptance-test state save)."""
        return self.history.point(process, self.record_checkpoint(
            process, time, CheckpointKind.REGULAR))

    def record_pseudo_recovery_point(self, process: ProcessId, time: float,
                                     origin: Tuple[ProcessId, int]) -> RecoveryPoint:
        """Record a pseudo recovery point implanted on behalf of *origin*."""
        return self.history.point(process, self.record_checkpoint(
            process, time, CheckpointKind.PSEUDO, tuple(origin)))

    # ------------------------------------------------------------------ messages
    def record_interaction(self, source: ProcessId, target: ProcessId,
                           send_time: float, receive_time: Optional[float] = None,
                           *, tainted: bool = False) -> None:
        """Record a delivered message between two processes."""
        receive_time = send_time if receive_time is None else receive_time
        self.history.append_interaction(source, target, send_time, receive_time)
        if not self._log_disabled:
            self._record(receive_time, EventKind.INTERACTION, source, peer=target,
                         initiator=True, receive_time=receive_time, tainted=tainted)

    # ------------------------------------------------------------------ verdicts
    def record_acceptance_test(self, process: ProcessId, time: float,
                               passed: bool) -> None:
        if not self._log_disabled:
            self._record(time, EventKind.ACCEPTANCE_TEST, process, passed=passed)

    def record_error(self, process: ProcessId, time: float, *, local: bool = True,
                     origin: Optional[ProcessId] = None) -> None:
        self._record(time, EventKind.ERROR, process, local=local,
                     origin=origin if origin is not None else process)

    def record_rollback(self, process: ProcessId, time: float,
                        restart_time: float, *, cause: ProcessId) -> None:
        self._record(time, EventKind.ROLLBACK, process,
                     restart_time=restart_time, cause=cause,
                     distance=time - restart_time)

    def record_sync_request(self, process: ProcessId, time: float) -> None:
        self._record(time, EventKind.SYNC_REQUEST, process)

    def record_sync_commit(self, process: ProcessId, time: float) -> None:
        self._record(time, EventKind.SYNC_COMMIT, process)

    def record_recovery_line(self, time: float, processes: Tuple[ProcessId, ...]) -> None:
        self._record(time, EventKind.RECOVERY_LINE, processes[0] if processes else 0,
                     members=tuple(processes))

    # ------------------------------------------------------------------ queries
    def rollback_count(self) -> int:
        return self.log.count(EventKind.ROLLBACK)

    def recovery_point_count(self, process: Optional[ProcessId] = None) -> int:
        return self.log.count(EventKind.RECOVERY_POINT, process=process)

    def interaction_count(self) -> int:
        return self.log.count(EventKind.INTERACTION)

    def summary(self) -> Dict[str, int]:
        return self.log.summary()
