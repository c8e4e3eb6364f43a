"""Runs cut off by ``max_sim_time``, every ``RunReport`` field in ``float.hex``.

``run_reports.json`` pins runs that finish their work; none of them reaches
the safety horizon.  Here every run stops at ``max_sim_time`` (7.3 or 20.0,
both short of the 25 units of work), so the report records the clock on
which the loop stopped, the work accrued up to it and whatever pauses were
still pending.  Checkpoint costs of 0.02, 0.5 and 2.0 against a restart cost
of 0.3 make checkpoint and restart pauses overlap, so a process can hold
several pending resumes at once.

Regenerate (only for a deliberate change of the simulated model) with
``PYTHONPATH=src python tests/recovery/test_incomplete_run_snapshot.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.recovery import make_runtime
from repro.workloads.generators import strategy_workload

SNAPSHOT = os.path.join(os.path.dirname(__file__), "snapshots",
                        "incomplete_runs.json")
SCHEMES = ("asynchronous", "pseudo", "synchronized")
HORIZONS = (7.3, 20.0)
CHECKPOINT_COSTS = (0.02, 0.5, 2.0)
SEEDS = (1, 2, 3)


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


def _workload(horizon: float, checkpoint_cost: float):
    workload = strategy_workload(4, mu=1.0, mu_spread=2.0, lam=1.5,
                                 work=25.0, error_rate=0.1,
                                 checkpoint_cost=checkpoint_cost,
                                 restart_cost=0.3)
    return dataclasses.replace(workload, max_sim_time=horizon)


def _run(scheme: str, horizon: float, checkpoint_cost: float, seed: int):
    return make_runtime(scheme, _workload(horizon, checkpoint_cost),
                        seed=seed).run()


def _key(scheme, horizon, checkpoint_cost, seed) -> str:
    return f"{scheme}/{horizon}/{checkpoint_cost}/{seed}"


CASES = [(scheme, horizon, cost) for scheme in SCHEMES
         for horizon in HORIZONS for cost in CHECKPOINT_COSTS]


def snapshot() -> dict:
    return {_key(*case, seed): _hex(_run(*case, seed))
            for case in CASES for seed in SEEDS}


def _load() -> dict:
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("scheme,horizon,checkpoint_cost", CASES)
def test_every_field_of_a_cut_off_run_is_bit_identical(scheme, horizon,
                                                        checkpoint_cost):
    expected = _load()
    for seed in SEEDS:
        key = _key(scheme, horizon, checkpoint_cost, seed)
        report = _run(scheme, horizon, checkpoint_cost, seed)
        assert not report.completed, key
        assert report.makespan >= horizon, key
        assert _hex(report) == expected[key], key


def test_snapshot_covers_every_case():
    assert sorted(_load()) == sorted(_key(*case, seed) for case in CASES
                                     for seed in SEEDS)


if __name__ == "__main__":
    cases = snapshot()
    with open(SNAPSHOT, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
            for key in sorted(cases)) + "\n}\n")
