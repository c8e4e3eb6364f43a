"""Offline contamination analysis over a recorded history.

Given an error that appears in one process at a known time, messages sent by a
contaminated process contaminate their receivers.  This module answers two
questions the paper's Section 4 discussion hinges on:

* which processes are contaminated at a given instant
  (:func:`contamination_at`), and
* which checkpoints — in particular which pseudo recovery points — captured a
  contaminated state (:func:`contaminated_checkpoints`), i.e. which PRPs cannot be
  trusted for recovery and force the rollback to continue past them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.history import HistoryDiagram
from repro.core.types import CheckpointKind, ProcessId, RecoveryPoint

__all__ = ["ContaminationAnalysis", "cascade_history", "contamination_at",
           "contaminated_checkpoints", "expand_cascade"]


@dataclass(frozen=True)
class ContaminationAnalysis:
    """Result of propagating one error through a history.

    ``infection_times[p]`` is the time at which process ``p`` became contaminated
    (absent if it never did); the error's origin has its original fault time.
    """

    origin: ProcessId
    fault_time: float
    infection_times: Dict[ProcessId, float]

    @property
    def reach(self) -> int:
        """Number of processes the error reached (including the origin)."""
        return len(self.infection_times)


def _propagate(history: HistoryDiagram, origin: ProcessId,
               fault_time: float) -> ContaminationAnalysis:
    if not (0 <= origin < history.n_processes):
        raise ValueError(f"origin process {origin} out of range")
    if fault_time < 0.0:
        raise ValueError("fault time must be non-negative")
    infection: Dict[ProcessId, float] = {origin: fault_time}
    # Messages are processed in time order; a message contaminates its receiver
    # when its *send* happens at or after the sender's infection time.
    changed = True
    while changed:
        changed = False
        for interaction in history.interactions:
            sender_infected = infection.get(interaction.source)
            if sender_infected is None or interaction.time < sender_infected:
                continue
            receive = interaction.receive_time
            current = infection.get(interaction.target)
            if current is None or receive < current:
                infection[interaction.target] = receive
                changed = True
    return ContaminationAnalysis(origin=origin, fault_time=fault_time,
                                 infection_times=infection)


def contamination_at(history: HistoryDiagram, origin: ProcessId, fault_time: float,
                     time: float) -> Set[ProcessId]:
    """Processes contaminated at *time* by a fault in *origin* at *fault_time*."""
    analysis = _propagate(history, origin, fault_time)
    return {pid for pid, infected_at in analysis.infection_times.items()
            if infected_at <= time}


def contaminated_checkpoints(history: HistoryDiagram, origin: ProcessId,
                             fault_time: float,
                             *, kinds: Tuple[CheckpointKind, ...] = (
                                 CheckpointKind.REGULAR, CheckpointKind.PSEUDO)
                             ) -> List[RecoveryPoint]:
    """Checkpoints whose saved state includes the (propagated) error.

    A checkpoint is contaminated when its owner was already infected at the moment
    the state was saved.  With the paper's perfect-acceptance-test assumption only
    *pseudo* recovery points can end up contaminated — regular RPs of the origin
    process would have failed their acceptance test — but the function checks every
    requested kind so imperfect-test scenarios can be analysed too.
    """
    analysis = _propagate(history, origin, fault_time)
    out: List[RecoveryPoint] = []
    for pid in history.processes:
        infected_at = analysis.infection_times.get(pid)
        if infected_at is None:
            continue
        for rp in history.checkpoints(pid, kinds=kinds):
            if rp.time >= infected_at:
                out.append(rp)
    return sorted(out)


def expand_cascade(seeds: Sequence[ProcessId],
                   neighbors: Callable[[ProcessId], Iterable[ProcessId]],
                   probability: float, depth: int,
                   draw: Callable[[float], bool]) -> List[ProcessId]:
    """Expand a correlated fault from *seeds* along interaction edges.

    Breadth-first, up to *depth* hops: each hop, every newly infected process
    offers the fault to each of its uninfected *neighbors* (in the order the
    callback yields them), and the edge is crossed when ``draw(probability)``
    returns true.  Already-infected processes are never re-drawn, so the draw
    sequence — and therefore the result — is fully deterministic given the
    draw stream.  Returns the infected processes, seeds first, then each
    hop's infections in BFS order.

    This is the runtime counterpart of the offline message-based analysis
    above: the recovery runtimes use it to execute the ``fault_model`` block
    of a ``strategy`` spec (a common-mode event strikes a group, then may
    domino outward with ``propagation_probability`` per edge).
    """
    if not (0.0 <= probability <= 1.0):
        raise ValueError("probability must be in [0, 1]")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    infected: List[ProcessId] = list(dict.fromkeys(seeds))
    seen: Set[ProcessId] = set(infected)
    frontier = list(infected)
    for _hop in range(depth):
        if probability <= 0.0 or not frontier:
            break
        fresh: List[ProcessId] = []
        for pid in frontier:
            for neighbor in neighbors(pid):
                if neighbor in seen:
                    continue
                if draw(probability):
                    seen.add(neighbor)
                    infected.append(neighbor)
                    fresh.append(neighbor)
        frontier = fresh
    return infected


def cascade_history(params, duration: float, *, seed: Optional[int] = None,
                    failure_law: str = "exponential",
                    failure_shape: Optional[float] = None) -> HistoryDiagram:
    """Sample a history for contamination analysis under any failure law.

    The domino-effect example path used to hard-wire the exponential model
    simulator; this front door serves the same histories for the exponential
    law — by delegating to
    :meth:`~repro.markov.montecarlo.ModelSimulator.generate_history`, so the
    output is bit-identical to the legacy path (pinned by regression tests) —
    and renewal histories via
    :class:`~repro.markov.montecarlo.RenewalModelSimulator` otherwise.
    """
    if failure_law == "exponential":
        if failure_shape is not None:
            raise ValueError("failure_shape requires a non-exponential "
                             "failure_law")
        from repro.markov.montecarlo import ModelSimulator
        return ModelSimulator(params, seed=seed).generate_history(duration)
    from repro.markov.montecarlo import RenewalModelSimulator
    sampler = RenewalModelSimulator(params, seed=seed, failure_law=failure_law,
                                    failure_shape=failure_shape)
    return sampler.generate_history(duration)
