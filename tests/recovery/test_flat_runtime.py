"""The runtimes on flat columns: no per-event objects, an O(n) Section 4 purge.

* A run builds no :class:`RecoveryPoint` or :class:`Interaction`:
  checkpoints are history rows the store also indexes, and those value
  objects exist only for readers.
* :meth:`CheckpointStore.purge_obsolete_pseudo_lines` visits only what
  changed since the previous purge; it must discard exactly what the
  Section 4 rule applied to every retained state would.
"""

from __future__ import annotations

import random

import pytest

from repro.core.types import CheckpointKind, Interaction, RecoveryPoint
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.pseudo import PseudoRecoveryPointRuntime
from repro.recovery.synchronized import SynchronizedRuntime

REGULAR, PSEUDO, INITIAL = (CheckpointKind.REGULAR, CheckpointKind.PSEUDO,
                            CheckpointKind.INITIAL)


@pytest.mark.parametrize("factory", [
    lambda wl: AsynchronousRuntime(wl, seed=11),
    lambda wl: PseudoRecoveryPointRuntime(wl, seed=4),
    lambda wl: SynchronizedRuntime(wl, seed=3, sync_interval=2.0),
], ids=["asynchronous", "pseudo", "synchronized"])
def test_run_loop_builds_no_value_objects(monkeypatch, small_workload, factory):
    built = []
    for cls in (RecoveryPoint, Interaction):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__,
                     **kwargs):
            built.append(_name)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    runtime = factory(small_workload)
    report = runtime.run()
    assert report.rollback_count > 0       # the rollback paths ran too
    assert built == []
    # Readers still get the objects, built from the columns on demand.
    assert runtime.history.interactions
    assert "Interaction" in built


def _rule(states):
    """The Section 4 rule applied to every retained state: surviving keys.

    *states* maps ``(process, index)`` to ``(time, kind, origin)``.  Each
    process keeps its latest non-pseudo state; a PRP survives while its
    triggering RP is its owner's latest; the initial states never go.
    """
    latest = {}
    for (pid, index), (time, kind, _origin) in states.items():
        if kind is not PSEUDO and (pid not in latest
                                   or time > states[pid, latest[pid]][0]):
            latest[pid] = index
    live = {(pid, index) for pid, index in latest.items()
            if states[pid, index][1] is REGULAR}
    return {key for key, (_time, kind, origin) in states.items()
            if kind is INITIAL or latest[key[0]] == key[1]
            or (kind is PSEUDO and origin in live)}


@pytest.mark.parametrize("seed", range(20))
def test_incremental_purge_matches_the_full_rule(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    store = CheckpointStore(n)
    # Every row the store was given, by (process, index); a process's
    # initial row is its latest regular one before any save.
    rows = {(pid, 0): store.latest_regular_row(pid) for pid in range(n)}
    shadow = {(pid, 0): (0.0, INITIAL, None) for pid in range(n)}
    counters = [1] * n
    time = 0.0

    def add(pid, kind, origin=None):
        index = counters[pid]
        counters[pid] += 1
        row = (time, kind, index, origin, time, False, None)
        store.add(pid, row)
        rows[pid, index] = row
        shadow[pid, index] = (time, kind, origin)
        return index

    for _ in range(300):
        time += rng.random()
        action = rng.random()
        pid = rng.randrange(n)
        if action < 0.45:
            index = add(pid, REGULAR)
            # A broadcast of PRPs for this RP to some of the others.
            for other in range(n):
                if other != pid and rng.random() < 0.8:
                    add(other, PSEUDO, (pid, index))
        elif action < 0.85:
            expected = _rule(shadow)
            purged = store.purge_obsolete_pseudo_lines()
            assert purged == len(shadow) - len(expected)
            shadow = {key: shadow[key] for key in expected}
        elif action < 0.95:
            # A PRP whose trigger is long gone (or never existed).
            add(pid, PSEUDO,
                ((pid + 1) % n, rng.randrange(counters[(pid + 1) % n])))
        else:
            cut = time - rng.random() * 3.0
            store.purge_before(pid, cut, keep_latest_regular=rng.random() < 0.7)
            shadow = {key: value for key, value in shadow.items()
                      if store.retains(key[0], rows[key])}
        assert store.count() == len(shadow)
        assert {key for key, row in rows.items()
                if store.retains(key[0], row)} == set(shadow)


#: The callbacks that carry scheme logic: the only main-heap events.
SCHEME_EVENTS = {"_fire_block_boundary", "_fire_fault", "_fire_common_mode",
                 "_issue_sync_request", "_record_restart_checkpoint"}


@pytest.mark.parametrize("factory", [
    lambda wl: AsynchronousRuntime(wl, seed=11),
    lambda wl: PseudoRecoveryPointRuntime(wl, seed=4),
    lambda wl: SynchronizedRuntime(wl, seed=3, sync_interval=2.0),
], ids=["asynchronous", "pseudo", "synchronized"])
def test_only_scheme_logic_reaches_the_main_heap(monkeypatch, small_workload,
                                                  factory):
    """Interactions and pause ends are handled inline from their own heaps;
    the engine's heap carries block boundaries, faults, sync requests and
    restart checkpoints only."""
    import repro.recovery.base as base

    popped = {"main": [], "interaction": 0, "resume": 0}
    real_pop = base._heappop

    def counting_pop(heap):
        entry = real_pop(heap)
        if len(entry) == 4:
            popped["main"].append(entry[2].__name__)
        elif isinstance(entry[2], tuple):
            popped["interaction"] += 1
        else:
            popped["resume"] += 1
        return entry

    monkeypatch.setattr(base, "_heappop", counting_pop)
    runtime = factory(small_workload)
    report = runtime.run()
    assert set(popped["main"]) <= SCHEME_EVENTS
    assert "_fire_block_boundary" in popped["main"]
    # Delivered messages are history rows; some timers found a peer paused.
    delivered = len(runtime.history.interaction_columns()[0])
    assert popped["interaction"] >= delivered > 0
    assert popped["resume"] > 0 and report.checkpoint_overhead_total > 0
    assert runtime.engine.pending_events == 0     # a finished run frees it
