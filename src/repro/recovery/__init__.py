"""Executable recovery-block runtimes.

This package turns the three implementation alternatives the paper analyses into
running systems on top of the discrete-event substrate:

* :class:`~repro.recovery.asynchronous.AsynchronousRuntime` — every process
  checkpoints on its own; failures trigger rollback propagation over the recorded
  history (domino effect possible).
* :class:`~repro.recovery.synchronized.SynchronizedRuntime` — a coordinator issues
  synchronization requests (constant-interval, elapsed-time or saved-state-count
  strategies, Section 3); all processes run their acceptance tests together and a
  recovery line is committed; failures roll back to the last committed line.
* :class:`~repro.recovery.pseudo.PseudoRecoveryPointRuntime` — the paper's
  proposal (Section 4): every recovery point broadcasts an implantation request and
  all other processes record pseudo recovery points, bounding rollback without
  synchronisation.

All three consume the same :class:`~repro.workloads.spec.WorkloadSpec` and produce
the same :class:`~repro.recovery.report.RunReport`, so experiments can compare them
like for like.

Execution model
---------------
Processes perform useful work at rate 1 while running.  Recovery-block boundaries
arrive after exponentially distributed amounts of work (rate ``μ_i``); pairwise
interactions arrive at rate ``λ_ij`` and are delivered as messages; transient
errors arrive at the workload's fault rate and contaminate the process state until
a rollback restores a clean checkpoint.  Saving a state costs ``t_r``
(``checkpoint_cost``); restoring one costs ``restart_cost``.  A run ends when every
process has completed its ``work_per_process`` budget (or the safety horizon is
hit).
"""

from typing import Optional

from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.report import RunReport, ProcessReport
from repro.recovery.base import RecoverySchemeRuntime
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.synchronized import SynchronizedRuntime, SyncStrategy
from repro.recovery.pseudo import PseudoRecoveryPointRuntime

__all__ = [
    "CheckpointStore",
    "RunReport",
    "ProcessReport",
    "RecoverySchemeRuntime",
    "AsynchronousRuntime",
    "SynchronizedRuntime",
    "SyncStrategy",
    "PseudoRecoveryPointRuntime",
    "make_runtime",
]


def make_runtime(scheme: str, workload, seed: Optional[int] = None, *,
                 sync_interval: float = 2.0) -> RecoverySchemeRuntime:
    """Build the runtime for a named scheme — the one dispatch point.

    Every caller constructs runtimes through here, so a new scheme or changed
    runtime wiring reaches them all at once.  The synchronized scheme uses
    the elapsed-time request strategy with the given *sync_interval*.
    """
    if scheme == "asynchronous":
        return AsynchronousRuntime(workload, seed=seed)
    if scheme == "pseudo":
        return PseudoRecoveryPointRuntime(workload, seed=seed)
    if scheme == "synchronized":
        return SynchronizedRuntime(workload, seed=seed,
                                   strategy=SyncStrategy.ELAPSED_TIME,
                                   sync_interval=sync_interval)
    raise ValueError(f"unknown scheme {scheme!r}")
