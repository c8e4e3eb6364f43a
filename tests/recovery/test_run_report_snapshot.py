"""Every ``RunReport`` field of the three schemes, pinned in ``float.hex``.

The strategy sweep snapshots pin a handful of replication means; this one
pins each field of single runs — per-process reports, ``extra``,
``rollback_distances``, ``peak_saved_states``, ``total_saves`` and
``domino_count`` — so a change to the runtimes cannot move a field that no
averaged metric reads.  The workloads cover plain exponential faults, a
correlated (common-mode + cascade) Weibull-fault workload with message
latency and an imperfect acceptance test, and a pipeline whose recovery
blocks run alternates.

Regenerate (only for a deliberate change of the simulated model) with
``PYTHONPATH=src python tests/recovery/test_run_report_snapshot.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.processes.acceptance import CoverageAcceptanceTest
from repro.recovery.asynchronous import AsynchronousRuntime
from repro.recovery.pseudo import PseudoRecoveryPointRuntime
from repro.recovery.synchronized import SynchronizedRuntime, SyncStrategy
from repro.workloads.generators import (homogeneous_workload,
                                        pipeline_workload, strategy_workload)

SNAPSHOT = os.path.join(os.path.dirname(__file__), "snapshots",
                        "run_reports.json")
SEEDS = (1, 2, 3, 4)


def _workloads():
    correlated = strategy_workload(
        4, mu=1.0, mu_spread=2.0, lam=1.0, work=15.0, error_rate=0.05,
        failure_law="weibull", failure_shape=1.5,
        fault_model={"groups": [[0, 1], [2, 3]], "common_mode_rate": 0.04,
                     "propagation_probability": 0.5, "cascade_depth": 2})
    correlated = dataclasses.replace(
        correlated, message_latency=0.01,
        acceptance=CoverageAcceptanceTest(local_coverage=0.9,
                                          external_coverage=0.5,
                                          false_alarm_probability=0.01))
    return {
        "homogeneous": homogeneous_workload(n=3, mu=1.0, lam=1.0, work=15.0,
                                            error_rate=0.05),
        "correlated": correlated,
        "pipeline": pipeline_workload(n=4, work=15.0, error_rate=0.05),
    }


RUNTIMES = {
    "asynchronous": lambda wl, seed: AsynchronousRuntime(wl, seed=seed),
    "asynchronous-purge": lambda wl, seed: AsynchronousRuntime(
        wl, seed=seed, purge_behind_recovery_lines=True),
    "pseudo": lambda wl, seed: PseudoRecoveryPointRuntime(wl, seed=seed),
    "pseudo-hoard": lambda wl, seed: PseudoRecoveryPointRuntime(
        wl, seed=seed, purge_storage=False),
    "sync-elapsed": lambda wl, seed: SynchronizedRuntime(
        wl, seed=seed, strategy=SyncStrategy.ELAPSED_TIME, sync_interval=2.0),
    "sync-constant": lambda wl, seed: SynchronizedRuntime(
        wl, seed=seed, strategy=SyncStrategy.CONSTANT_INTERVAL,
        sync_interval=2.0),
    "sync-state-count": lambda wl, seed: SynchronizedRuntime(
        wl, seed=seed, strategy=SyncStrategy.STATE_COUNT, state_threshold=5),
}


def _hex(value):
    """A JSON value that pins *value* exactly (floats as ``float.hex``)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hex(value[key]) for key in sorted(value)}
    if isinstance(value, (tuple, list)):
        return [_hex(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _hex(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    raise TypeError(f"cannot pin {type(value).__name__}")


def report_hex(workload_name: str, runtime_name: str, seed: int) -> dict:
    runtime = RUNTIMES[runtime_name](_workloads()[workload_name], seed)
    return _hex(runtime.run())


#: Every runtime on every workload, except the recovery-line purge: its
#: exact detector rescans the whole history per checkpoint, so it runs on
#: the small workload only.
CASES = [(w, r) for w in ("homogeneous", "correlated", "pipeline")
         for r in RUNTIMES
         if r != "asynchronous-purge" or w == "homogeneous"]


def snapshot() -> dict:
    return {f"{w}/{r}/{seed}": report_hex(w, r, seed)
            for w, r in CASES for seed in SEEDS}


def _load() -> dict:
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload_name,runtime_name", CASES)
def test_every_report_field_is_bit_identical(workload_name, runtime_name):
    expected = _load()
    for seed in SEEDS:
        key = f"{workload_name}/{runtime_name}/{seed}"
        assert report_hex(workload_name, runtime_name, seed) == expected[key], key


def test_snapshot_covers_every_case():
    assert sorted(_load()) == sorted(f"{w}/{r}/{seed}" for w, r in CASES
                                     for seed in SEEDS)


if __name__ == "__main__":
    cases = snapshot()
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
            for key in sorted(cases)) + "\n}\n")
