"""Synchronized recovery blocks (Section 3) as a running system.

A coordinator issues synchronization requests according to one of the paper's
three strategies:

1. ``CONSTANT_INTERVAL`` — requests at a fixed period, regardless of state;
2. ``ELAPSED_TIME`` — a request when the time since the previous recovery line
   exceeds a threshold;
3. ``STATE_COUNT`` — a request when the number of states saved since the previous
   recovery line exceeds a threshold (processes keep saving local states between
   lines under this strategy).

Upon a request every process finishes its current recovery block, sets its ready
flag, broadcasts it, and waits for the commitments of all others; then all
processes run their acceptance tests at the same instant and the recovery line is
committed.  The waiting time — the computation-power loss ``CL`` analysed in
Section 3 — is measured per line and reported, so it can be compared directly with
the closed-form ``CL = n∫(1−G(t))dt − Σ1/μ_i``.

Failures detected at a synchronisation point roll *all* processes back to the
previous committed line: rollback distance is bounded by construction, which is
the whole point of the scheme.
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, Optional

from repro.core.types import ProcessId
from repro.recovery.base import RecoverySchemeRuntime
from repro.workloads.spec import WorkloadSpec

__all__ = ["SyncStrategy", "SynchronizedRuntime"]


class SyncStrategy(enum.Enum):
    """When the coordinator issues synchronization requests (Section 3)."""

    CONSTANT_INTERVAL = "constant-interval"
    ELAPSED_TIME = "elapsed-time"
    STATE_COUNT = "state-count"


class SynchronizedRuntime(RecoverySchemeRuntime):
    """The synchronized (conversation-style) recovery-block scheme."""

    scheme_name = "synchronized"

    def __init__(self, workload: WorkloadSpec, seed: Optional[int] = None, *,
                 strategy: SyncStrategy = SyncStrategy.ELAPSED_TIME,
                 sync_interval: float = 2.0,
                 state_threshold: int = 6) -> None:
        super().__init__(workload, seed)
        if sync_interval <= 0.0:
            raise ValueError("sync_interval must be positive")
        if state_threshold < 1:
            raise ValueError("state_threshold must be at least 1")
        self.strategy = strategy
        self.sync_interval = float(sync_interval)
        self.state_threshold = int(state_threshold)
        self._sync_active = False
        self._request_time = 0.0
        self._ready: Dict[int, float] = {}          # pid -> y_i (time to readiness)
        self._last_line: Dict[ProcessId, tuple] = {}   # pid -> checkpoint row
        self._last_line_time = 0.0
        self._saves_since_line = 0
        self._sync_losses: list = []
        self.sync_requests = 0
        self.line_rollbacks = 0

    # ------------------------------------------------------------------ lifecycle
    def on_run_start(self) -> None:
        self._last_line = {pid: self.history.checkpoint_rows(pid)[0][0]
                           for pid in range(self.n)}
        if self.strategy is not SyncStrategy.STATE_COUNT:
            self.engine.schedule(self.sync_interval, self._issue_sync_request)

    # ------------------------------------------------------------------ requests
    def _issue_sync_request(self) -> None:
        if self.all_done() or self.now >= self.workload.max_sim_time:
            return
        if self._sync_active:
            # A request is already being served; constant-interval requests simply
            # queue up behind it by rescheduling.
            if self.strategy is SyncStrategy.CONSTANT_INTERVAL:
                self.engine.schedule(self.sync_interval, self._issue_sync_request)
            return
        self._sync_active = True
        self._request_time = self.now
        self._ready = {}
        self.sync_requests += 1
        for pid in range(self.n):
            if self._done[pid]:
                self._ready[pid] = 0.0
        if len(self._ready) == self.n:
            self._commit_line()
        elif self.strategy is SyncStrategy.CONSTANT_INTERVAL:
            self.engine.schedule(self.sync_interval, self._issue_sync_request)

    # ------------------------------------------------------------------ hooks
    def on_block_boundary(self, pid: int) -> None:
        if self._sync_active and pid not in self._ready:
            # The process reached its acceptance test: it is ready and must wait
            # for the commitments of the others (step 3 of the paper's protocol).
            self._ready[pid] = self.now - self._request_time
            self.stop_running(pid, self.now)
            if len(self._ready) == self.n:
                self._commit_line()
            return
        if self.strategy is SyncStrategy.STATE_COUNT and not self._sync_active:
            # Between lines, processes keep saving local states (no global line).
            detected = self.run_acceptance_test(pid)
            if detected:
                self.on_error_detected(pid)
                return
            self.take_checkpoint(pid)
            self._saves_since_line += 1
            if self._saves_since_line >= self.state_threshold:
                self._issue_sync_request()

    def on_process_completed(self, pid: int) -> None:
        """A process finishing during an active sync counts as ready immediately."""
        if self._sync_active and pid not in self._ready:
            self._ready[pid] = self.now - self._request_time
            if len(self._ready) == self.n:
                self._commit_line()

    def on_error_detected(self, pid: int) -> None:
        """Roll every process back to the previous committed recovery line."""
        send, _recv, _src, _dst, dead = self.history.interaction_columns()
        invalidated = [k for k in range(bisect.bisect_right(
            send, self._last_line_time), len(send)) if not dead[k]]
        self.apply_rollback(dict(self._last_line), invalidated,
                            record_restart_checkpoints=False)
        self.line_rollbacks += 1

    # ------------------------------------------------------------------ commit
    def _commit_line(self) -> None:
        """All processes are ready: run the acceptance tests and commit the line."""
        waits = {pid: (self.now - self._request_time) - y
                 for pid, y in self._ready.items()}
        total_wait = 0.0
        for pid, wait in waits.items():
            if not self._done[pid]:
                self._waiting[pid] += wait
                total_wait += wait
        self._sync_losses.append(total_wait)

        failures = []
        for pid in range(self.n):
            if self._done[pid]:
                continue
            if self.run_acceptance_test(pid):
                failures.append(pid)

        if failures:
            # The rollback returns every process to the previous line and
            # handles the restart pauses/resumes itself.
            self._sync_active = False
            self.on_error_detected(failures[0])
            if self.strategy is SyncStrategy.ELAPSED_TIME:
                self.engine.schedule(self.sync_interval, self._issue_sync_request)
            return
        else:
            new_line = dict(self._last_line)
            for pid in range(self.n):
                if not self._done[pid]:
                    new_line[pid] = self.take_checkpoint(pid)
            self._last_line = new_line
            self._last_line_time = self.now
            self._saves_since_line = 0
            self.recovery_lines_committed += 1
            # Old states are no longer needed: rollback never crosses the line.
            for pid in range(self.n):
                self.store.purge_before(pid, self.now)
            self._note_saved_states(self.now)

        # Resume everyone and schedule the next request.
        self._sync_active = False
        for pid in range(self.n):
            if not self._running[pid]:
                self.start_running(pid, self.now)
        if self.strategy is SyncStrategy.ELAPSED_TIME:
            self.engine.schedule(self.sync_interval, self._issue_sync_request)

    # ------------------------------------------------------------------ reporting
    def mean_sync_loss(self) -> float:
        """Mean computation-power loss per committed synchronisation (``CL``)."""
        if not self._sync_losses:
            return 0.0
        return float(sum(self._sync_losses) / len(self._sync_losses))

    def extra_metrics(self) -> Dict[str, float]:
        return {
            "sync_requests": float(self.sync_requests),
            "mean_sync_loss": self.mean_sync_loss(),
            "line_rollbacks": float(self.line_rollbacks),
        }
