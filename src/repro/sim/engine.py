"""The discrete-event simulation kernel.

A :class:`SimulationEngine` owns a virtual clock and a binary-heap event queue
of plain callbacks (:meth:`SimulationEngine.schedule`).  The kernel is
single-threaded and deterministic: events at equal times fire in the order
they were scheduled (queue entries are ``(time, sequence, callback, args)``
and the sequence number breaks every tie).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Event loop with a virtual clock.

    Parameters
    ----------
    start_time:
        Initial clock value (default 0).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._running = False

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after *delay* units of virtual time."""
        if delay < 0.0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue,
                       (self._now + delay, next(self._seq), callback, args))

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time *time*."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        heapq.heappush(self._queue, (time, next(self._seq), callback, args))

    # ------------------------------------------------------------------ running
    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        if not self._queue:
            return False
        time, _seq, callback, args = heapq.heappop(self._queue)
        if time < self._now - 1e-12:  # pragma: no cover - defensive
            raise RuntimeError("event queue produced a time in the past")
        if time > self._now:
            self._now = time
        self._processed += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, *until* is reached, or *max_events* executed.

        Returns the clock value when the run stops.  When *until* is given the
        clock is advanced to exactly *until* even if the last event fired earlier.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return self._now

    def drain(self) -> float:
        """Run until no events remain; returns the final clock value."""
        return self.run(until=None)
