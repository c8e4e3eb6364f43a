"""Fundamental value types: recovery points, interactions, recovery lines.

These are deliberately small, immutable dataclasses; the richer behaviour
(histories, detection, rollback) lives in sibling modules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

__all__ = [
    "ProcessId",
    "CheckpointKind",
    "RecoveryPoint",
    "Interaction",
    "RecoveryLine",
]

#: Processes are identified by small non-negative integers (``P_1`` in the paper is
#: process id ``0`` here; rendering code converts back to 1-based labels).
ProcessId = int


class CheckpointKind(enum.Enum):
    """Kind of saved state.

    ``REGULAR`` corresponds to the paper's recovery point (RP): a state saved right
    after a successful acceptance test.  ``PSEUDO`` corresponds to a pseudo recovery
    point (PRP, Section 4): a state saved on request *without* a preceding
    acceptance test, and therefore potentially contaminated.  ``INITIAL`` marks the
    implicit checkpoint every process has at its beginning (time 0).
    """

    REGULAR = "RP"
    PSEUDO = "PRP"
    INITIAL = "INIT"

    @property
    def verified(self) -> bool:
        """True when the saved state passed an acceptance test (RPs and the start)."""
        return self in (CheckpointKind.REGULAR, CheckpointKind.INITIAL)


class RecoveryPoint:
    """A saved process state.

    Ordering is by ``(time, process, index)`` so that sorted containers of recovery
    points iterate in chronological order.  This is a hand-written value class
    rather than a frozen dataclass: the simulator creates one per checkpoint
    (tens of thousands per replication sweep), and the per-field
    ``object.__setattr__`` cost of a generated frozen ``__init__`` is the single
    largest allocation expense of the hot path.  Equality, ordering and hashing
    match the previous dataclass exactly (``origin`` excluded from comparison);
    the hash is computed lazily on first use and cached.

    Attributes
    ----------
    time:
        Simulation time at which the state was saved.
    process:
        Owning process id.
    index:
        0-based sequence number of the checkpoint within its process (the ``j`` of
        the paper's ``RP_i^j``).
    kind:
        Regular RP, pseudo RP, or the initial state.
    origin:
        For pseudo recovery points, the ``(process, index)`` of the regular RP whose
        implantation request created this PRP (the paper's ``PRP_{i'}^{ij}``);
        ``None`` otherwise.
    """

    __slots__ = ("time", "process", "index", "kind", "origin", "_hash")

    def __init__(self, time: float, process: ProcessId, index: int,
                 kind: CheckpointKind = CheckpointKind.REGULAR,
                 origin: Optional[Tuple[ProcessId, int]] = None) -> None:
        if time < 0.0:
            raise ValueError("recovery point time must be non-negative")
        if process < 0:
            raise ValueError("process id must be non-negative")
        if index < 0:
            raise ValueError("recovery point index must be non-negative")
        if kind is CheckpointKind.PSEUDO and origin is None:
            raise ValueError("pseudo recovery points must record their origin RP")
        self.time = time
        self.process = process
        self.index = index
        self.kind = kind
        self.origin = origin
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RecoveryPoint:
            return (self.time == other.time and self.process == other.process
                    and self.index == other.index and self.kind == other.kind)
        return NotImplemented

    def __lt__(self, other: "RecoveryPoint") -> bool:
        if other.__class__ is not RecoveryPoint:
            return NotImplemented
        return ((self.time, self.process, self.index, self.kind)
                < (other.time, other.process, other.index, other.kind))

    def __le__(self, other: "RecoveryPoint") -> bool:
        if other.__class__ is not RecoveryPoint:
            return NotImplemented
        return ((self.time, self.process, self.index, self.kind)
                <= (other.time, other.process, other.index, other.kind))

    def __gt__(self, other: "RecoveryPoint") -> bool:
        if other.__class__ is not RecoveryPoint:
            return NotImplemented
        return ((self.time, self.process, self.index, self.kind)
                > (other.time, other.process, other.index, other.kind))

    def __ge__(self, other: "RecoveryPoint") -> bool:
        if other.__class__ is not RecoveryPoint:
            return NotImplemented
        return ((self.time, self.process, self.index, self.kind)
                >= (other.time, other.process, other.index, other.kind))

    def __hash__(self) -> int:
        # Recovery points are set/dict keys throughout the rollback machinery;
        # cache the compare-field hash on first lookup so repeated probes do
        # not rebuild the tuple (and points never hashed pay nothing at all).
        h = self._hash
        if h is None:
            h = hash((self.time, self.process, self.index, self.kind))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return (f"RecoveryPoint(time={self.time!r}, process={self.process!r}, "
                f"index={self.index!r}, kind={self.kind!r}, origin={self.origin!r})")

    @property
    def label(self) -> str:
        """Human-readable label in the paper's notation, e.g. ``RP_1^2``."""
        base = self.kind.value
        return f"{base}_{self.process + 1}^{self.index}"

    def is_usable_for(self, failed_process: ProcessId) -> bool:
        """Whether this checkpoint may serve as a restart state after a failure.

        Regular RPs and initial states are always usable.  A PRP is usable only when
        the error did *not* originate in the process whose RP triggered it before
        the PRP was taken — callers with more context refine this; the conservative
        default mirrors Section 4: PRPs are usable when the failure is local to the
        triggering process (``origin[0] == failed_process``).
        """
        if self.kind.verified:
            return True
        assert self.origin is not None
        return self.origin[0] == failed_process


class Interaction:
    """A single inter-process communication.

    The analytic model of Section 2 treats an interaction between ``P_i`` and ``P_j``
    as an instantaneous, symmetric event; the DES substrate produces message sends
    and receives with distinct times.  Both are represented here: ``time`` is the
    send time and ``receive_time`` the delivery time (equal for instantaneous
    interactions).

    Hand-written for the same reason as :class:`RecoveryPoint` — one instance
    per simulated message makes frozen-dataclass construction cost visible.
    Equality and ordering compare ``(time, source, target, receive_time)``
    (``message`` excluded), exactly like the dataclass it replaces; the hash of
    those fields is computed lazily and cached because rollback propagation
    probes invalidated/excluded sets with every interaction on every sweep.
    """

    __slots__ = ("time", "source", "target", "receive_time", "message", "_hash")

    def __init__(self, time: float, source: ProcessId, target: ProcessId,
                 receive_time: float = -1.0, message: object = None) -> None:
        if source == target:
            raise ValueError("a process cannot interact with itself")
        if time < 0.0:
            raise ValueError("interaction time must be non-negative")
        if receive_time < 0.0:
            receive_time = time
        elif receive_time < time:
            raise ValueError("receive_time must not precede send time")
        self.time = time
        self.source = source
        self.target = target
        self.receive_time = receive_time
        self.message = message
        self._hash: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Interaction:
            return (self.time == other.time and self.source == other.source
                    and self.target == other.target
                    and self.receive_time == other.receive_time)
        return NotImplemented

    def __lt__(self, other: "Interaction") -> bool:
        if other.__class__ is not Interaction:
            return NotImplemented
        return ((self.time, self.source, self.target, self.receive_time)
                < (other.time, other.source, other.target, other.receive_time))

    def __le__(self, other: "Interaction") -> bool:
        if other.__class__ is not Interaction:
            return NotImplemented
        return ((self.time, self.source, self.target, self.receive_time)
                <= (other.time, other.source, other.target, other.receive_time))

    def __gt__(self, other: "Interaction") -> bool:
        if other.__class__ is not Interaction:
            return NotImplemented
        return ((self.time, self.source, self.target, self.receive_time)
                > (other.time, other.source, other.target, other.receive_time))

    def __ge__(self, other: "Interaction") -> bool:
        if other.__class__ is not Interaction:
            return NotImplemented
        return ((self.time, self.source, self.target, self.receive_time)
                >= (other.time, other.source, other.target, other.receive_time))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.time, self.source, self.target, self.receive_time))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return (f"Interaction(time={self.time!r}, source={self.source!r}, "
                f"target={self.target!r}, receive_time={self.receive_time!r})")

    @property
    def pair(self) -> Tuple[ProcessId, ProcessId]:
        """Unordered pair of participants, smallest id first."""
        return (self.source, self.target) if self.source < self.target else (
            self.target, self.source)

    def involves(self, process: ProcessId) -> bool:
        return process in (self.source, self.target)

    def window(self) -> Tuple[float, float]:
        """The ``[send, receive]`` time window of the interaction."""
        return (self.time, self.receive_time)


@dataclass(frozen=True)
class RecoveryLine:
    """A globally consistent set of checkpoints — one per process.

    The *formation time* of a recovery line is the latest checkpoint time in it:
    before that moment the line did not exist.
    """

    points: Mapping[ProcessId, RecoveryPoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a recovery line needs at least one process")
        object.__setattr__(self, "points", dict(self.points))
        for pid, rp in self.points.items():
            if rp.process != pid:
                raise ValueError(
                    f"recovery point {rp.label} filed under wrong process {pid}")

    @property
    def processes(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(self.points))

    @property
    def formation_time(self) -> float:
        return max(rp.time for rp in self.points.values())

    @property
    def earliest_time(self) -> float:
        return min(rp.time for rp in self.points.values())

    def point_for(self, process: ProcessId) -> RecoveryPoint:
        return self.points[process]

    def is_pseudo(self) -> bool:
        """True when the line contains at least one pseudo recovery point."""
        return any(rp.kind is CheckpointKind.PSEUDO for rp in self.points.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecoveryLine):
            return NotImplemented
        return dict(self.points) == dict(other.points)

    def __hash__(self) -> int:
        return hash(tuple(sorted((pid, rp.time, rp.index, rp.kind)
                                 for pid, rp in self.points.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        labels = ", ".join(self.points[p].label for p in self.processes)
        return f"RecoveryLine({labels} @ t={self.formation_time:.4f})"
