"""The persistent perf trajectory: measure, pin bit-identity, guard.

Every test here runs one of the two acceptance workloads of
``bench_workloads`` end to end and asserts the results are bit-for-bit the
committed pre-optimization snapshot — the correctness half runs on every
invocation (PR smoke included).  The perf half is opt-in via environment:

``REPRO_BENCH_RECORD=1``
    append the measured wall time to ``BENCH_<area>.json`` at the repo root
    (or ``$REPRO_BENCH_DIR``) through :mod:`repro.bench`.
``REPRO_BENCH_GUARD=1``
    fail when throughput drops more than :data:`GUARD_TOLERANCE` below the
    latest trajectory entry recorded *on this machine* (cross-machine wall
    times are not comparable; with no same-machine baseline the guard
    skips — the recording run seeds it).

The nightly CI job sets both, persisting the trajectory between nights, so
a regression against the previous night fails the build.  To refresh the
committed baseline after an intentional perf change, run::

    REPRO_BENCH_RECORD=1 python -m pytest benchmarks/test_bench_trajectory.py -q

and commit the rewritten ``BENCH_*.json``.
"""

import json
import os
import pickle
import time

import pytest

from bench_workloads import (ANALYTIC_SPEC, STRATEGY_REPS_PER_CELL,
                             STRATEGY_SPEC, hexify)

from repro import bench
from repro.api import StudySpec
from repro.api.evaluators import get_evaluator
from repro.api.facade import evaluate_in_context
from repro.api.strategy import StrategyEvaluator
from repro.markov.structure_cache import cache_info, clear_structure_cache
from repro.runner import ExecutionContext

#: Allowed throughput drop vs. the latest same-machine trajectory entry.
GUARD_TOLERANCE = 0.25

SNAPSHOT_DIR = os.path.join(os.path.dirname(__file__), "snapshots")

RECORDING = bool(os.environ.get("REPRO_BENCH_RECORD"))
GUARDING = bool(os.environ.get("REPRO_BENCH_GUARD"))


def load_snapshot(name):
    with open(os.path.join(SNAPSHOT_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


#: Timed repetitions per sweep; the recorded wall is the best of these.
#: A single shot is at the mercy of machine drift, which at the guard's
#: tolerance would flag noise as regression.
BENCH_REPEATS = 3


def run_sweep(spec_dict, method, prepare=None):
    """The acceptance sweep through the facade's in-context path, timed.

    Runs :data:`BENCH_REPEATS` times (calling *prepare* before each timed
    run) and returns the first run's metrics with the best wall time; the
    determinism contract makes every repeat's metrics identical.
    """
    spec = StudySpec.from_dict(spec_dict)
    cells = list(spec.cells())
    metrics, wall = None, float("inf")
    for _ in range(BENCH_REPEATS):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        evaluations = evaluate_in_context(ExecutionContext(seed=spec.seed),
                                          cells, method=method)
        wall = min(wall, time.perf_counter() - start)
        if metrics is None:
            metrics = [e.metrics for e in evaluations]
    return metrics, wall


def check_guard(area, op, wall, n, *, unit=None, extra=None):
    """Record and/or guard this measurement, per the environment toggles.

    The one guard of the trajectory benches (the service and warehouse
    benches import it).  *unit* defaults to replications for the strategy
    area and cells elsewhere; *extra* is stored with a recorded entry.
    """
    baseline = bench.latest(area, op, same_machine=True)
    if RECORDING:
        bench.record(area, op, n, wall,
                     unit=unit or ("replications" if area == "strategy"
                                   else "cells"),
                     note="nightly trajectory run", extra=extra)
    if not GUARDING:
        return
    if baseline is None:
        pytest.skip(f"no {area}/{op} trajectory entry for this machine yet; "
                    "this run seeds it" if RECORDING else
                    f"no same-machine baseline for {area}/{op} and "
                    "REPRO_BENCH_RECORD is off")
    throughput = n / wall
    floor = baseline["throughput"] * (1.0 - GUARD_TOLERANCE)
    assert throughput >= floor, (
        f"{area}/{op} throughput regressed: {throughput:.1f}/s vs the "
        f"recorded {baseline['throughput']:.1f}/s "
        f"(tolerance {GUARD_TOLERANCE:.0%}, recorded "
        f"{baseline['timestamp']} at version {baseline['code_version']})")


class TestStrategySweepTrajectory:
    def test_bit_identity_and_throughput(self):
        metrics, wall = run_sweep(STRATEGY_SPEC, "strategy")
        snapshot = load_snapshot("strategy_sweep.json")
        assert hexify(metrics) == snapshot["metrics_hex"], (
            "strategy sweep results drifted from the pinned pre-optimization "
            "snapshot — the chunked replication path broke bit-identity")
        n_reps = snapshot["n_cells"] * STRATEGY_REPS_PER_CELL
        check_guard("strategy", "strategy_sweep_3schemes_x4lam", wall, n_reps)


class TestAnalyticSweepTrajectory:
    def test_bit_identity_and_throughput(self):
        # Clearing before every timed repeat keeps the measured work
        # identical: one structural miss + 99 value refills per sweep.
        metrics, wall = run_sweep(ANALYTIC_SPEC, "analytic",
                                  prepare=clear_structure_cache)
        snapshot = load_snapshot("analytic_sweep.json")
        assert hexify(metrics) == snapshot["metrics_hex"], (
            "analytic sweep results drifted from the pinned pre-optimization "
            "snapshot — the structure-cached assembly broke bit-identity")
        # A rates-only sweep shares one structure: 1 miss, 99 refills.
        info = cache_info()
        assert info["misses"] == 1 and info["hits"] == snapshot["n_cells"] - 1
        check_guard("analytic", "analytic_sweep_rates_only_100cells_n9",
                    wall, snapshot["n_cells"])


class TestPayloadDedup:
    """The chunked task layout pays one system dict per chunk, not per rep."""

    def test_chunked_pickle_smaller_than_per_rep(self):
        spec = StudySpec.from_dict(STRATEGY_SPEC)
        cells = list(spec.cells())
        evaluator = get_evaluator("strategy")
        assert isinstance(evaluator, StrategyEvaluator)
        chunked, _ = evaluator.cell_tasks(cells, ExecutionContext(seed=spec.seed))
        per_rep, _ = evaluator.cell_tasks(_with_rep_chunk(cells, 1),
                                          ExecutionContext(seed=spec.seed))
        # One dumps per task, the way a process pool actually ships them —
        # pickling the whole list at once would memoize the shared dicts and
        # hide the per-task payload cost.
        chunked_bytes = sum(len(pickle.dumps(t)) for t in chunked)
        per_rep_bytes = sum(len(pickle.dumps(t)) for t in per_rep)
        assert len(per_rep) > len(chunked)
        assert chunked_bytes < per_rep_bytes / 2, (
            f"chunked payload {chunked_bytes}B should undercut the "
            f"one-task-per-rep layout {per_rep_bytes}B by at least 2x")
        print(f"\n[payload] chunked: {len(chunked)} tasks, {chunked_bytes} B; "
              f"one-per-rep: {len(per_rep)} tasks, {per_rep_bytes} B")

    def test_chunks_share_one_system_dict_per_cell(self):
        spec = StudySpec.from_dict(STRATEGY_SPEC)
        cells = list(spec.cells())
        evaluator = get_evaluator("strategy")
        ctx = ExecutionContext(seed=spec.seed)
        tasks, bounds = evaluator.cell_tasks(cells, ctx)
        for lo, hi in zip(bounds, bounds[1:]):
            systems = {id(task.system) for task in tasks[lo:hi]}
            assert len(systems) == 1, "chunks of one cell must share the dict"


def _with_rep_chunk(cells, chunk):
    """Copies of *cells* carrying ``options.rep_chunk = chunk``."""
    from dataclasses import replace
    return [replace(c, options={**dict(c.options), "rep_chunk": chunk})
            for c in cells]
