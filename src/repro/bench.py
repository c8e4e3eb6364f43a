"""Persistent performance trajectory and per-phase timing.

Two small, dependency-free utilities the benchmark suite and the CLI share:

**Trajectory recorder** — :func:`record` appends a machine-stamped entry
(op, n, wall time, throughput, code version) to ``BENCH_<area>.json`` at the
repository root.  The files are append-only: each entry documents one
measurement on one machine at one point of the code's history, so the file
as a whole is the performance *trajectory* of that area — the record future
optimisation work (and the CI regression guard) compares against.

File format (one JSON object per area)::

    {"area": "strategy", "schema": 1, "entries": [
        {"op": "strategy_sweep_3schemes_x4lam", "n": 60,
         "unit": "replications", "wall_seconds": 1.857,
         "throughput": 32.31, "code_version": "1.1.0",
         "note": "pre-PR baseline, interleaved with the after run",
         "machine": {"node": "...", "machine": "x86_64",
                     "cpus": 1, "python": "3.11.7"},
         "timestamp": "2026-08-08T09:00:00Z",
         "extra": {}},
        ...]}

Comparing wall times across *different* machines is meaningless, so every
entry carries a machine stamp and :func:`latest` can filter to entries
recorded on the current machine; the benchmark guard skips rather than
fails when no same-machine baseline exists.  To refresh a baseline after an
intentional perf change: run the trajectory benchmarks with
``REPRO_BENCH_RECORD=1`` and commit the rewritten ``BENCH_*.json``.

**Phase timer** — :func:`collect_phases` / :func:`phase` implement the
``python -m repro eval --timing`` breakdown.  Instrumented code wraps its
phases in ``with phase("solve"):`` — a no-op (a shared null context, no
allocation) unless a collector is active, so the instrumentation costs
nothing on the normal path.  Phases nest by name: re-entering the active
phase (e.g. per-cell ``assembly`` inside a sweep) accumulates into one
bucket.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import time
from typing import Dict, List, Optional

from repro import __version__

__all__ = [
    "PhaseTimer",
    "bench_path",
    "collect_phases",
    "latest",
    "load_trajectory",
    "machine_stamp",
    "phase",
    "record",
    "repo_root",
]

#: Format version of the BENCH files (bump on incompatible layout changes).
BENCH_SCHEMA = 1


# --------------------------------------------------------------------- files
def repo_root() -> str:
    """The repository root the ``BENCH_*.json`` files live in.

    ``REPRO_BENCH_DIR`` overrides (CI writes artifacts elsewhere); otherwise
    walk up from this module towards a directory containing ``setup.py`` —
    the package layout is ``<root>/src/repro/bench.py`` — falling back to
    the current working directory for installed copies.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(4):
        here = os.path.dirname(here)
        if os.path.isfile(os.path.join(here, "setup.py")):
            return here
    return os.getcwd()


def bench_path(area: str, root: Optional[str] = None) -> str:
    """Path of the trajectory file for *area* (``BENCH_<area>.json``)."""
    if not area or not area.replace("_", "").isalnum():
        raise ValueError(f"area must be a simple identifier, got {area!r}")
    return os.path.join(root if root is not None else repo_root(),
                        f"BENCH_{area}.json")


def machine_stamp() -> Dict[str, object]:
    """What makes wall times comparable: node, arch, CPU count, python."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def load_trajectory(area: str, root: Optional[str] = None) -> List[Dict]:
    """All recorded entries for *area*, oldest first (empty when no file)."""
    path = bench_path(area, root)
    if not os.path.isfile(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path} is not a BENCH trajectory file")
    return entries


def record(area: str, op: str, n: int, wall_seconds: float, *,
           unit: str = "items", note: str = "",
           extra: Optional[Dict[str, object]] = None,
           root: Optional[str] = None) -> Dict[str, object]:
    """Append one measurement to ``BENCH_<area>.json`` and return the entry.

    ``throughput`` is derived (``n / wall_seconds``) so trajectory entries
    with different problem sizes stay comparable.
    """
    if wall_seconds <= 0.0:
        raise ValueError(f"wall_seconds must be positive, got {wall_seconds}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entry: Dict[str, object] = {
        "op": str(op),
        "n": int(n),
        "unit": str(unit),
        "wall_seconds": float(wall_seconds),
        "throughput": float(n) / float(wall_seconds),
        "code_version": __version__,
        "note": str(note),
        "machine": machine_stamp(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        entry["extra"] = dict(extra)
    path = bench_path(area, root)
    entries = load_trajectory(area, root)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"area": area, "schema": BENCH_SCHEMA, "entries": entries},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


def latest(area: str, op: str, *, same_machine: bool = False,
           root: Optional[str] = None) -> Optional[Dict]:
    """The most recent entry for *op* (optionally: on this machine), or None."""
    stamp = machine_stamp() if same_machine else None
    for entry in reversed(load_trajectory(area, root)):
        if entry.get("op") != op:
            continue
        if stamp is not None and entry.get("machine") != stamp:
            continue
        return entry
    return None


# --------------------------------------------------------------------- timing
class PhaseTimer:
    """Accumulates named wall-time buckets (one level, names may repeat)."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._started = time.perf_counter()

    def add(self, name: str, seconds: float, *, before: bool = False) -> None:
        """Charge *seconds* to *name*; ``before=True`` marks time spent
        before this timer started (process start-up), which the total then
        includes."""
        if before:
            self._started -= seconds
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    @contextlib.contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def render(self, digits: int = 3) -> str:
        """The ``--timing`` table: one line per phase, insertion order.

        The ``other`` line is the collector's lifetime not covered by any
        phase (argument parsing, result rendering, ...), so the column sums
        to the total.
        """
        total = time.perf_counter() - self._started
        covered = sum(self.totals.values())
        width = max([len(n) for n in self.totals] + [len("total"), 5])
        lines = ["[timing]"]
        for name, seconds in self.totals.items():
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"  {name:<{width}}  {seconds:>{digits + 5}.{digits}f}s"
                         f"  {share:5.1f}%  (x{self.counts[name]})")
        rest = max(0.0, total - covered)
        share = 100.0 * rest / total if total > 0 else 0.0
        lines.append(f"  {'other':<{width}}  {rest:>{digits + 5}.{digits}f}s"
                     f"  {share:5.1f}%")
        lines.append(f"  {'total':<{width}}  {total:>{digits + 5}.{digits}f}s")
        return "\n".join(lines)


#: The active collector (one per process; the CLI is single-threaded).
_ACTIVE: Optional[PhaseTimer] = None

#: Shared no-op context for the disabled path — no allocation per call.
_NULL = contextlib.nullcontext()


@contextlib.contextmanager
def collect_phases():
    """Activate a :class:`PhaseTimer` for the dynamic extent of the block."""
    global _ACTIVE
    timer = PhaseTimer()
    previous, _ACTIVE = _ACTIVE, timer
    try:
        yield timer
    finally:
        _ACTIVE = previous


def phase(name: str):
    """Context manager timing *name* into the active collector (no-op without).

    Instrumentation sites call this unconditionally; the disabled path
    returns a shared null context.
    """
    timer = _ACTIVE
    return timer.phase(name) if timer is not None else _NULL
