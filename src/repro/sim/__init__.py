"""Discrete-event simulation substrate.

The paper's authors evaluated their models with an in-house simulation whose code
is not available; this package provides the replacement substrate: a deterministic,
seedable discrete-event kernel of scheduled callbacks and named random streams.
The recovery-block runtimes of :mod:`repro.recovery` are ordinary users of this
kernel; what a run records is its
:class:`~repro.core.history.HistoryDiagram`, and what it reports is its
:class:`~repro.recovery.report.RunReport`.

Design notes
------------
* Concurrency is *simulated*: a single event loop advances virtual time.  This is
  deliberate — the paper's quantities depend only on the stochastic model, and a
  real-thread implementation in CPython would add GIL noise without adding fidelity.
* Determinism: given a seed, every run is bit-for-bit reproducible; the event queue
  breaks ties by insertion order.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.random_streams import RandomStreams

__all__ = [
    "SimulationEngine",
    "RandomStreams",
]
