"""Common machinery of the recovery-scheme runtimes.

:class:`RecoverySchemeRuntime` owns the simulation engine, the random streams,
the history, the checkpoint store, and the three recurring event
families every scheme needs — recovery-block boundaries, pairwise interactions
and fault arrivals — and leaves the scheme-specific reactions to subclasses via
two hooks, :meth:`RecoverySchemeRuntime.on_block_boundary` and
:meth:`RecoverySchemeRuntime.on_error_detected`.  Interactions and the ends
of pauses never reach the engine's heap: :meth:`RecoverySchemeRuntime.run`
handles them inline from two side heaps.

Process state is kept in flat per-process columns (lists indexed by process
id): useful work done, whether the process is running or paused
(checkpointing, restarting, waiting for a synchronisation commit), whether it
is done, the origin of an undetected error contaminating its state (``None``
when clean), and the overhead accumulators of its report.  The history is
the run's only record: a checkpoint is one history row (see
:mod:`repro.core.history`) that the store also indexes, a delivered message is
one row of its interaction columns, and a rollback
(:meth:`RecoverySchemeRuntime.apply_rollback`) restores the rows a plan chose.
The counters a scheme reports in :meth:`RecoverySchemeRuntime.extra_metrics`
are plain ints on the runtime.
"""

from __future__ import annotations

import abc
from heapq import heappop as _heappop, heappush as _heappush
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.history import (CP_CONTAMINATED, CP_ERROR_ORIGIN, CP_KIND,
                                CP_TIME, CP_WORK, HistoryDiagram)
from repro.core.types import CheckpointKind, ProcessId
from repro.faults.propagation import expand_cascade
from repro.processes.program import RecoveryBlockExecutor
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.report import ProcessReport, RunReport
from repro.sim.engine import SimulationEngine
from repro.sim.random_streams import RandomStreams
from repro.workloads.spec import WorkloadSpec

__all__ = ["RecoverySchemeRuntime"]

_REGULAR = CheckpointKind.REGULAR
_PSEUDO = CheckpointKind.PSEUDO
_INITIAL = CheckpointKind.INITIAL


class RecoverySchemeRuntime(abc.ABC):
    """Base class of the asynchronous, synchronized and PRP runtimes."""

    #: Name reported in :class:`RunReport.scheme`; subclasses override.
    scheme_name = "abstract"

    def __init__(self, workload: WorkloadSpec, seed: Optional[int] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.params = workload.params
        self.n = n = workload.params.n
        self.engine = SimulationEngine()
        self.streams = RandomStreams(seed)
        self.history = HistoryDiagram(n)
        self.store = CheckpointStore(n)
        # Per-process columns.
        self._goal = float(workload.work_per_process)
        self._work: List[float] = [0.0] * n
        self._running: List[bool] = [False] * n
        self._run_start: List[float] = [0.0] * n
        self._done: List[bool] = [False] * n
        self._finish: List[Optional[float]] = [None] * n
        self._taint: List[Optional[ProcessId]] = [None] * n
        self._checkpoint_overhead: List[float] = [0.0] * n
        self._restart_overhead: List[float] = [0.0] * n
        self._waiting: List[float] = [0.0] * n
        self._lost: List[float] = [0.0] * n
        self._rollbacks: List[int] = [0] * n
        self._checkpoints: List[int] = [0] * n
        self._pseudo_checkpoints: List[int] = [0] * n
        self.rollback_distances: List[float] = []
        self.domino_count = 0
        self.recovery_lines_committed = 0
        self.acceptance_tests = 0
        self.errors_injected = 0
        self._started = False
        # Number of processes currently marked done.  Maintained where the
        # flag flips (completion checks, rollback revival) so the per-event
        # completion checks are O(1) instead of a scan over the processes.
        self._n_done = 0
        # Saved states held: area under the level so far, level, and since when.
        self._saved_area, self._saved_level, self._saved_since = 0.0, n, 0.0
        # Hot-path hoists: run invariants resolved once here instead of through
        # two attribute hops (plus an f-string build) per simulation event.
        self._max_sim_time = workload.max_sim_time
        self._message_latency = workload.message_latency
        self._checkpoint_cost = workload.checkpoint_cost
        self._propagate_taint = workload.faults.propagate_via_messages
        self._fault_rate = float(workload.faults.error_rate)
        # Every timer and coin reads its own named stream through a buffered
        # variate iterator (``next()`` per draw).  Streams are derived from
        # their name alone (never from creation order), so creating them up
        # front is bit-identical to lazy lookup.
        streams = self.streams
        # Nominal (primary) duration of each process's recovery blocks.
        self._nominal = [1.0 / float(mu) for mu in self.params.mu]
        self._block_draws = [
            streams.exponential_source(f"block.{pid}", float(self.params.mu[pid]))
            for pid in range(n)]
        self._acceptance_rngs = [streams.stream(f"acceptance.{pid}")
                                 for pid in range(n)]
        self._acceptance = workload.acceptance
        # Pairs that interact: (i, j, send-time draws, direction coin).
        self._pairs = [
            (i, j, streams.exponential_source(f"interaction.{i}.{j}",
                                              self.params.pair_rate(i, j)),
             streams.uniform_source(f"direction.{i}.{j}"))
            for i in range(n) for j in range(i + 1, n)
            if self.params.pair_rate(i, j) > 0.0]
        # Fault interarrivals: exponential by default, else a renewal law with
        # mean ``1/error_rate``, from the per-process ``fault.<pid>`` streams.
        faults = workload.faults
        self._fault_draws = []
        if self._fault_rate > 0.0:
            law = faults.interarrival_law
            mean = 1.0 / self._fault_rate
            if law != "exponential":
                shape = float(faults.interarrival_shape)
            if law == "weibull":
                from scipy.special import gamma as _gamma_fn
                scale = mean / float(_gamma_fn(1.0 + 1.0 / shape))
            for pid in range(n):
                name = f"fault.{pid}"
                if law == "exponential":
                    draws = streams.exponential_source(name, self._fault_rate)
                elif law == "weibull":
                    draws = streams.weibull_source(name, shape, scale)
                else:
                    draws = streams.lognormal_source(
                        name, float(np.log(mean) - 0.5 * shape * shape), shape)
                self._fault_draws.append(draws)
        # Correlated fault model (common-mode groups + cascades).  When the
        # workload has no common-mode block nothing is scheduled at all, so
        # plain runs draw exactly the same stream sequence as before.
        self._common_mode_groups = faults.common_mode_groups
        self._cascade_probability = float(faults.propagation_probability)
        self._cascade_depth = int(faults.cascade_depth)
        self._common_mode_draws = []
        self._cascade_coins = []
        if faults.has_common_mode:
            for g in range(len(self._common_mode_groups)):
                self._common_mode_draws.append(streams.exponential_source(
                    f"common_mode.{g}", float(faults.common_mode_rate)))
                self._cascade_coins.append(streams.uniform_source(f"cascade.{g}"))
        # Cascades travel along interaction edges: neighbours of ``i`` are the
        # processes it has a positive pairwise rate with, in process order.
        self._neighbor_lists = [
            [j for j in range(n)
             if j != i and self.params.pair_rate(i, j) > 0.0]
            for i in range(n)]
        # Direct handles on the engine's queue and sequence counter (both are
        # created once and never reassigned): the recurring timer chains below
        # push entries in SimulationEngine.schedule's exact format without
        # paying its call frame on every event.  Interaction timers
        # ``(time, seq, pair)`` and pause ends ``(time, seq, pid)`` go on the
        # side heaps.
        self._equeue = self.engine._queue
        self._eseq = self.engine._seq
        self._iqueue, self._rqueue = [], []

    # ------------------------------------------------------------------ helpers
    @property
    def now(self) -> float:
        # Reads the engine's clock attribute directly: this property is hit
        # several times per simulation event, and the extra property frame of
        # engine.now is measurable across a replication sweep.
        return self.engine._now

    def all_done(self) -> bool:
        # The maintained counter replaces a scan over the processes.
        return self._n_done >= self.n

    # ------------------------------------------------------------------ process state
    def _accrue(self, pid: int, now: float) -> None:
        """Accrue useful work of *pid* up to *now* (no-op unless running)."""
        if self._running[pid] and not self._done[pid]:
            delta = now - self._run_start[pid]
            if delta > 0.0:
                self._work[pid] += delta
            self._run_start[pid] = now

    def start_running(self, pid: int, now: float) -> None:
        if not self._done[pid]:
            self._running[pid] = True
            self._run_start[pid] = now

    def stop_running(self, pid: int, now: float) -> None:
        self._accrue(pid, now)
        self._running[pid] = False

    def _check_completion(self, pid: int, now: float) -> bool:
        """Clamp work at the goal; mark *pid* done when it is reached."""
        if self._done[pid]:
            return False
        work = self._work
        if self._running[pid]:  # inlined _accrue(): once per boundary event
            delta = now - self._run_start[pid]
            if delta > 0.0:
                work[pid] += delta
            self._run_start[pid] = now
        if work[pid] >= self._goal - 1e-12:
            excess = work[pid] - self._goal
            work[pid] = self._goal
            self._done[pid] = True
            self._running[pid] = False
            self._finish[pid] = now - excess
            self._n_done += 1
            return True
        return False

    def _contaminate(self, pid: int, origin: ProcessId) -> None:
        if self._taint[pid] is None:
            self._taint[pid] = origin

    # ------------------------------------------------------------------ timers
    def _fire_block_boundary(self, pid: int) -> None:
        now = self.engine._now
        if now >= self._max_sim_time or self._n_done >= self.n:
            return
        if not self._done[pid] and self._running[pid]:
            if self._check_completion(pid, now):
                self.on_process_completed(pid)
            else:
                self.on_block_boundary(pid)
        # Whether or not the boundary was actionable, keep the timer chain
        # alive (exponential inter-boundary times are memoryless): a finished
        # process can be dragged back into the computation by a later rollback
        # and must then resume reaching recovery-block boundaries.
        # (Handlers never advance the clock, so ``now`` is still engine time.)
        _heappush(self._equeue,
                  (now + next(self._block_draws[pid]), next(self._eseq),
                   self._fire_block_boundary, (pid,)))

    def _fire_fault(self, pid: int) -> None:
        now = self.engine._now
        if now >= self._max_sim_time or self._n_done >= self.n:
            return
        if not self._done[pid] and self._running[pid]:
            self._contaminate(pid, pid)
            self.errors_injected += 1
        # Always reschedule (even for finished processes) so a process revived by
        # a rollback keeps experiencing faults.
        _heappush(self._equeue, (now + next(self._fault_draws[pid]),
                                 next(self._eseq), self._fire_fault, (pid,)))

    def _fire_common_mode(self, g: int) -> None:
        """A common-mode event strikes group *g*, then may cascade outward.

        Every running, unfinished member of the group is contaminated at once
        (that is what makes the faults *correlated*); the combined seed set is
        then expanded along interaction edges with
        :func:`~repro.faults.propagation.expand_cascade`, each edge crossed
        with ``propagation_probability`` drawn from the group's dedicated
        ``cascade.<g>`` stream, up to ``cascade_depth`` hops.
        """
        now = self.engine._now
        if now >= self._max_sim_time or self._n_done >= self.n:
            return
        done, running = self._done, self._running
        seeds = [pid for pid in self._common_mode_groups[g]
                 if not done[pid] and running[pid]]
        if seeds:
            if self._cascade_probability > 0.0 and self._cascade_depth > 0:
                coin = self._cascade_coins[g]
                struck = expand_cascade(
                    seeds, self._neighbor_lists.__getitem__,
                    self._cascade_probability, self._cascade_depth,
                    lambda p: next(coin) < p)
            else:
                struck = seeds
            for pid in struck:
                # Cascaded victims may be paused or already done; like the
                # independent fault path, only a running process's state can
                # actually absorb the error.
                if not done[pid] and running[pid]:
                    self._contaminate(pid, pid)
                    self.errors_injected += 1
        _heappush(self._equeue, (now + next(self._common_mode_draws[g]),
                                 next(self._eseq), self._fire_common_mode, (g,)))

    # ------------------------------------------------------------------ pauses
    def _pause(self, pid: int, duration: float, bucket: List[float]) -> None:
        """Suspend *pid* for *duration*; work does not accrue meanwhile.

        The time is added to *bucket*, one of the per-process overhead
        columns (checkpoint or restart).
        """
        now = self.engine._now
        running = self._running
        if running[pid] and not self._done[pid]:  # inlined _accrue()
            delta = now - self._run_start[pid]
            if delta > 0.0:
                self._work[pid] += delta
            self._run_start[pid] = now
        running[pid] = False
        bucket[pid] += duration
        if duration <= 0.0:
            self.start_running(pid, now)
            return
        # The run loop resumes *pid* at the first of its pending pause ends.
        _heappush(self._rqueue, (now + duration, next(self._eseq), pid))

    # ------------------------------------------------------------------ checkpoints
    def take_checkpoint(self, pid: int, *, kind: CheckpointKind = CheckpointKind.REGULAR,
                        origin=None, charge_time: bool = True) -> tuple:
        """Record a checkpoint for *pid* at the current time; returns its row.

        The process is paused for ``checkpoint_cost`` when *charge_time* is set;
        the row saves the current work level and contamination.
        """
        now = self.engine._now
        row = self._save(pid, now, kind, origin,
                         self._checkpoint_cost if charge_time else 0.0)
        self._note_saved_states(now)
        return row

    def _save(self, pid: int, now: float, kind: CheckpointKind, origin,
              cost: float) -> tuple:
        """Write *pid*'s checkpoint, one history row that the store indexes,
        and pause *pid* for *cost* (if positive)."""
        work, running = self._work, self._running
        if running[pid] and not self._done[pid]:  # inlined _accrue()
            delta = now - self._run_start[pid]
            if delta > 0.0:
                work[pid] += delta
            self._run_start[pid] = now
        if kind is _REGULAR:
            self._checkpoints[pid] += 1
        elif kind is _PSEUDO:
            if origin is None:
                raise ValueError("pseudo checkpoints need an origin")
            self._pseudo_checkpoints[pid] += 1
        else:  # pragma: no cover - defensive
            raise ValueError("cannot take an INITIAL checkpoint explicitly")
        taint = self._taint[pid]
        row = self.history.append_checkpoint(pid, now, kind, origin,
                                             work[pid], taint is not None,
                                             taint)
        self.store.add(pid, row)
        if cost > 0.0:  # inlined _pause(): the work was accrued above
            running[pid] = False
            self._checkpoint_overhead[pid] += cost
            _heappush(self._rqueue, (now + cost, next(self._eseq), pid))
        return row

    def _note_saved_states(self, now: float) -> None:
        """The number of saved states (store._count) may have changed."""
        self._saved_area += self._saved_level * (now - self._saved_since)
        self._saved_since = now
        self._saved_level = self.store._count

    # ------------------------------------------------------------------ rollback
    def apply_rollback(self, restart: Dict[ProcessId, tuple],
                       invalidated: Iterable[int] = (),
                       *, record_restart_checkpoints: bool = True) -> None:
        """Restore every process in *restart* to its checkpoint row.

        Useful work rolls back to the restored row's level, contamination is
        reset to whatever the row saved, restart costs are charged, and the
        *invalidated* interactions (column positions) are flagged dead so they
        can never orphan anybody again.  With *record_restart_checkpoints* the
        restored state is re-saved as a fresh regular checkpoint once the
        restart completes, so later failures never propagate past this restart
        (log truncation).
        """
        now = self.engine._now
        store = self.store
        max_distance = 0.0
        domino = False

        for pid, row in sorted(restart.items()):
            self._accrue(pid, now)
            if not store.retains(pid, row):
                # The state was purged (can only happen to superseded pseudo
                # recovery points); fall back to the latest retained regular
                # state not newer than the requested one.
                row = store.latest_regular_row(pid, before=row[CP_TIME])
            lost = max(0.0, self._work[pid] - row[CP_WORK])
            self._work[pid] = row[CP_WORK]
            self._lost[pid] += lost
            self._rollbacks[pid] += 1
            # The restored state dictates the contamination status.
            if row[CP_CONTAMINATED]:
                origin = row[CP_ERROR_ORIGIN]
                self._contaminate(pid, pid if origin is None else origin)
            else:
                self._taint[pid] = None
            if self._done[pid]:
                # A finished process dragged back into the computation.
                self._done[pid] = False
                self._finish[pid] = None
                self._n_done -= 1
            distance = now - restart[pid][CP_TIME]
            max_distance = max(max_distance, distance)
            domino = domino or restart[pid][CP_KIND] is _INITIAL
            # Charge the restart and resume.
            self._pause(pid, self.workload.restart_cost, self._restart_overhead)

        self.history.kill_interactions(invalidated)
        self.rollback_distances.append(max_distance)
        if domino:
            self.domino_count += 1

        if record_restart_checkpoints:
            delay = self.workload.restart_cost
            for pid in restart:
                self.engine.schedule(delay, self._record_restart_checkpoint, pid)

    def _record_restart_checkpoint(self, pid: int) -> None:
        if not self._done[pid]:
            self.take_checkpoint(pid, kind=_REGULAR, charge_time=True)

    # ------------------------------------------------------------------ hooks
    @abc.abstractmethod
    def on_block_boundary(self, pid: int) -> None:
        """A recovery-block boundary was reached by a running process."""

    def on_process_completed(self, pid: int) -> None:
        """Process *pid* finished its work budget (default: nothing extra)."""

    @abc.abstractmethod
    def on_error_detected(self, pid: int) -> None:
        """An acceptance test flagged an error in *pid*; perform the rollback."""

    def on_run_start(self) -> None:
        """Scheme-specific setup before the event loop starts (optional)."""

    # ------------------------------------------------------------------ detection
    def run_acceptance_test(self, pid: int) -> bool:
        """Run the acceptance test of *pid*; returns True when an error is flagged."""
        taint = self._taint[pid]
        rng = self._acceptance_rngs[pid]
        acceptance = self._acceptance
        detected = acceptance.detects(
            has_local_error=taint is not None and taint == pid,
            has_external_error=taint is not None and taint != pid, rng=rng)
        if not detected and taint is None:
            detected = acceptance.false_alarm(rng)
        self.acceptance_tests += 1
        return detected

    def _block_executors(self) -> Optional[List[RecoveryBlockExecutor]]:
        """One recovery-block executor per process, on ``alternates.<pid>``;
        None for a lone primary that always passes in time (no result moves)."""
        first, *rest = self.workload.block_spec.alternates
        if not rest and first.success_probability >= 1.0 \
                and first.duration_factor <= 1.0:
            return None
        return [RecoveryBlockExecutor(self.workload.block_spec,
                                      self.streams.stream(f"alternates.{pid}"))
                for pid in range(self.n)]

    def _block_passes(self, pid: int) -> bool:
        """Close the current recovery block of *pid* at its boundary.

        Runs the acceptance test (with the external-detection nuance of
        Section 2.1), then the block's alternates for algorithmic (not
        state-contamination) failures, whose extra time is charged as a
        restart pause.  On a detected error or exhausted alternates the
        rollback runs and the result is False.  Needs ``self._executors``
        (see :meth:`_block_executors`).
        """
        if self.run_acceptance_test(pid):
            self.on_error_detected(pid)
            return False
        if self._executors is None:
            return True
        nominal = self._nominal[pid]
        outcome = self._executors[pid].execute(nominal, state_contaminated=False)
        if not outcome.passed:
            # All alternates failed: treat as a detected local error.
            self.on_error_detected(pid)
            return False
        extra = max(0.0, outcome.elapsed - nominal)
        if extra > 0.0:
            self._pause(pid, extra, self._restart_overhead)
        return True

    # ------------------------------------------------------------------ run loop
    def run(self) -> RunReport:
        """Execute the workload under this scheme and return the report."""
        if self._started:
            raise RuntimeError("a runtime instance can only be run once")
        self._started = True
        for pid in range(self.n):
            self.start_running(pid, 0.0)
        self.on_run_start()
        schedule = self.engine.schedule
        for pid in range(self.n):
            schedule(next(self._block_draws[pid]), self._fire_block_boundary, pid)
            if self._fault_draws:
                schedule(next(self._fault_draws[pid]), self._fire_fault, pid)
        for g, draws in enumerate(self._common_mode_draws):
            schedule(next(draws), self._fire_common_mode, g)
        queue, iqueue, rqueue = self._equeue, self._iqueue, self._rqueue
        eseq = self._eseq
        for pair in self._pairs:
            _heappush(iqueue, (next(pair[2]), next(eseq), pair))

        # The smallest (time, seq) of the three heaps goes next (each block
        # chain keeps the main heap non-empty).  The first pending end of
        # overlapping pauses resumes a process that is not done.  The run ends
        # past the horizon, or once a scheme event has finished every process.
        n, until, engine = self.n, self._max_sim_time, self.engine
        done, running, run_start = self._done, self._running, self._run_start
        taint, propagate = self._taint, self._propagate_taint
        latency = self._message_latency
        # The live run appends interactions in time order, so the history's
        # columns stay sorted (the in-order case of append_interaction).
        send, recv, src, dst, dead = self.history.interaction_columns()
        now = engine._now
        while now < until:
            if rqueue:
                entry = rqueue[0]
                if entry < queue[0] and (not iqueue or entry < iqueue[0]):
                    now, _seq, pid = _heappop(rqueue)
                    if not done[pid] and not running[pid]:
                        running[pid] = True
                        run_start[pid] = now
                    continue
            if iqueue and iqueue[0] < queue[0]:
                now, _seq, pair = _heappop(iqueue)
                if now >= until:
                    break
                i, j, delays, coin = pair
                if running[i] and running[j] and not (done[i] or done[j]):
                    # The direction matters to the taint model only.
                    source, target = (i, j) if next(coin) < 0.5 else (j, i)
                    origin = taint[source]
                    send.append(now)
                    recv.append(now + latency)
                    src.append(source)
                    dst.append(target)
                    dead.append(False)
                    if propagate and origin is not None \
                            and taint[target] is None:
                        taint[target] = origin
                _heappush(iqueue, (now + next(delays), next(eseq), pair))
            else:
                now, _seq, callback, args = _heappop(queue)
                engine._now = now
                callback(*args)
                if self._n_done >= n:
                    break
        engine._now = now
        queue.clear()  # its bound methods make a cycle refcounting cannot free
        # Final bookkeeping.
        for pid in range(n):
            self._check_completion(pid, now)
        return self._build_report()

    # ------------------------------------------------------------------ reporting
    def _build_report(self) -> RunReport:
        completed = self.all_done()
        makespan = max((t for t in self._finish if t is not None),
                       default=self.now)
        if not completed:
            makespan = self.now
        processes = tuple(
            ProcessReport(process=pid, finish_time=self._finish[pid],
                          useful_work=self._work[pid],
                          lost_work=self._lost[pid],
                          checkpoint_overhead=self._checkpoint_overhead[pid],
                          restart_overhead=self._restart_overhead[pid],
                          waiting_time=self._waiting[pid],
                          checkpoints_taken=self._checkpoints[pid],
                          pseudo_checkpoints_taken=self._pseudo_checkpoints[pid],
                          rollbacks=self._rollbacks[pid])
            for pid in range(self.n))
        return RunReport(
            scheme=self.scheme_name,
            seed=self.seed,
            n_processes=self.n,
            completed=completed,
            makespan=makespan,
            ideal_makespan=self.workload.ideal_completion_time(),
            processes=processes,
            rollback_count=len(self.rollback_distances),
            rollback_distances=tuple(self.rollback_distances),
            lost_work_total=sum(self._lost),
            checkpoint_overhead_total=sum(self._checkpoint_overhead),
            restart_overhead_total=sum(self._restart_overhead),
            waiting_time_total=sum(self._waiting),
            recovery_lines_committed=self.recovery_lines_committed,
            domino_count=self.domino_count,
            peak_saved_states=self.store.peak_count,
            total_saves=self.store.total_saves,
            extra=self.extra_metrics(),
        )

    def extra_metrics(self) -> Dict[str, float]:
        """Scheme-specific additions to the report (optional)."""
        return {}
