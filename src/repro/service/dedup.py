"""Single-flight deduplication of in-flight identical cells.

When N clients submit the *same* cell (same :meth:`StudySpec.canonical_key`)
while it is still computing, exactly one backend execution happens: the
first submission becomes the flight *leader* and every later one joins the
leader's future.  All N submissions resolve to the same stored result, and
the backend sees one task set — the multi-tenant analogue of the store's
cache-hit semantics, extended to cells that are not *done* yet.

Flights are keyed by the cell's store key, so deduplication composes with
the LRU and the store: a submission probes LRU → store → in-flight, and only
then starts a new flight.  Seedless stochastic cells never get a flight —
two fresh-entropy runs are *different* experiments (the same policy that
keeps them out of the store).

The registry is confined to the service's event-loop thread; futures are
resolved on the loop, so joiners wake in the ordinary asyncio way.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple

__all__ = ["SingleFlight"]


class SingleFlight:
    """In-flight registry: one shared future per cell key."""

    def __init__(self) -> None:
        self._flights: Dict[str, asyncio.Future] = {}
        #: Flights started (— the number of actual executions admitted).
        self.flights = 0
        #: Submissions that joined an existing flight instead of executing.
        self.joined = 0

    def __len__(self) -> int:
        return len(self._flights)

    def __contains__(self, key: str) -> bool:
        return key in self._flights

    def lease(self, key: str) -> Tuple[asyncio.Future, bool]:
        """Return ``(future, leader)`` for *key*.

        The leader (first caller for a key with no active flight) is
        responsible for arranging the computation and resolving the future;
        joiners just await it.  The flight unregisters itself when the
        future completes — however it completes — so a key can fly again
        later (e.g. a forced recompute after the first flight landed).
        """
        future = self._flights.get(key)
        if future is not None:
            self.joined += 1
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._flights[key] = future
        future.add_done_callback(lambda _f, _k=key: self._flights.pop(_k, None))
        self.flights += 1
        return future, True

    def pending(self) -> Tuple[asyncio.Future, ...]:
        """A snapshot of the active flight futures (for drain/shutdown)."""
        return tuple(self._flights.values())

    def stats(self) -> Dict[str, int]:
        return {"in_flight": len(self._flights), "flights": self.flights,
                "joined": self.joined}
