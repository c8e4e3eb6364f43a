"""The two CLI workloads: cold ``python -m repro eval`` processes.

``cli_analytic`` sweeps the 100-cell heterogeneous n=9 model (dense LU);
``cli_strategy`` runs 3 schemes x 8 ``lam`` values through the strategy
engine's event loop.  One run is:

* set-up: nine one-cell ``eval`` processes, each an analytic snapshot cell
  drawn by the seed (~10 ms of compute) -> ``setup_s``, and the same
  samples in ms -> ``p50_ms``/``tail_ms``;
* cycles until ``--seconds`` have passed, each on a fresh store:
  the cold sweep (``eval_wall_s``), the same sweep again against the store
  it just filled (``warm_wall_s``), and ``query load`` of the store into a
  fresh warehouse (``etl_wall_s``).

Every wall is paced: scaled to the reference pace of the host (see
``common.pace``).  Every output is checked against the committed
``float.hex`` snapshots.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, List

import common
import layers

#: One-cell processes in set-up; the tail of nine samples is their maximum.
SETUP_REPEATS = 9

ANALYTIC_SPEC = {
    "system": {"kind": "heterogeneous", "n": 9, "mu_base": 1.0,
               "mu_gradient": 2.0, "lam_base": 0.5, "locality": 1.0},
    "metrics": ["mean", "variance"],
    "sweep": {"lam_base": [round(0.2 + 0.008 * i, 6) for i in range(100)]},
}

#: The strategy snapshot's 3 x 4 sweep, widened to 8 ``lam`` values; the
#: snapshot covers lam in {0.5, 1, 1.5, 2}.
STRATEGY_SPEC = {
    "system": {"kind": "strategy", "scheme": "synchronized", "n": 4,
               "mu": 1.0, "lam": 1.0, "work": 25.0, "error_rate": 0.05,
               "sync_interval": 2.0},
    "metrics": ["makespan", "slowdown", "rollbacks", "lost_work",
                "total_saves"],
    "seed": 1234,
    "sweep": {"scheme": ["asynchronous", "synchronized", "pseudo"],
              "lam": [0.5 + 0.25 * i for i in range(8)]},
}
STRATEGY_SNAPSHOT_SWEEP = {"scheme": ["asynchronous", "synchronized",
                                      "pseudo"],
                           "lam": [0.5, 1.0, 1.5, 2.0]}
STRATEGY_REPS_PER_CELL = 5


def sweep_cells(sweep: Dict[str, list]) -> List[Dict[str, object]]:
    """Cell axis values in ``StudySpec.cells`` order (axes sorted by name)."""
    axes = sorted(sweep)
    return [dict(zip(axes, combo))
            for combo in itertools.product(*(sweep[a] for a in axes))]


def single_cell_spec(spec: Dict, cell: Dict[str, object]) -> Dict:
    system = dict(spec["system"], **cell)
    single = {k: v for k, v in spec.items() if k != "sweep"}
    single["system"] = system
    return single


class CliWorkload:
    """One sweep spec, its snapshot, and the cycle that measures it."""

    def __init__(self, spec: Dict, snapshot: str,
                 snapshot_sweep: Dict[str, list], engine: str) -> None:
        self.spec = spec
        self.engine = engine
        self.cells = sweep_cells(spec["sweep"])
        expected = common.expected_hex(snapshot)
        covered = sweep_cells(snapshot_sweep)
        #: sweep cell index -> the snapshot's hex metrics for it
        self.expected = {self.cells.index(cell): hexes
                         for cell, hexes in zip(covered, expected)}

    # ------------------------------------------------------------- checks
    def check_sweep(self, metrics: List[Dict[str, float]]) -> bool:
        if len(metrics) != len(self.cells):
            return False
        indices = sorted(self.expected)
        return common.all_finite(metrics) and common.count_mismatches(
            [self.expected[i] for i in indices],
            [metrics[i] for i in indices]) == 0


def run(workload: CliWorkload, seed: int, seconds: float,
        trace: bool) -> Dict[str, object]:
    # Each process is single-threaded (BLAS pinned to one thread), so one
    # CPU is all it uses.
    common.pin_to_one_cpu()
    launcher = common.Launcher(trace)
    ops = common.Ops()
    rng = random.Random(seed)
    sweep_path = common.write_json(common.work_path("sweep.json"),
                                   workload.spec)

    # Set-up on both workloads is a one-cell analytic process, checked
    # against its snapshot cell.
    setup = []
    for index in range(SETUP_REPEATS):
        cell = rng.choice(sorted(ANALYTIC.expected))
        spec_path = common.write_json(
            common.work_path(f"setup-{index}.spec.json"),
            single_cell_spec(ANALYTIC.spec, ANALYTIC.cells[cell]))
        out = common.work_path(f"setup-{index}.json")
        wall, proc = launcher.run(["eval", spec_path, "-o", out, "--force"],
                                  "setup")
        setup.append(wall)
        ops.record(proc.returncode == 0 and common.count_mismatches(
            [ANALYTIC.expected[cell]], common.eval_output_metrics(out)) == 0,
            "setup cell")

    cold, warm, etl = [], [], []
    first_cold = None
    started = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started < seconds:
        store = common.work_path(f"store-{cycle}")
        cold_out = common.work_path(f"cold-{cycle}.json")
        wall, proc = launcher.run(["eval", sweep_path, "--store", store,
                                   "-o", cold_out, "--force"], "cold")
        cold.append(wall)
        cold_metrics = (common.eval_output_metrics(cold_out)
                        if proc.returncode == 0 else [])
        if first_cold is None:
            first_cold = cold_metrics
        ops.record(proc.returncode == 0
                   and workload.check_sweep(cold_metrics)
                   and common.count_mismatches(
                       [common.hex_metrics(m) for m in first_cold],
                       cold_metrics) == 0, "cold sweep")

        warm_out = common.work_path(f"warm-{cycle}.json")
        wall, proc = launcher.run(["eval", sweep_path, "--store", store,
                                   "-o", warm_out, "--force"], "warm")
        warm.append(wall)
        ops.record(proc.returncode == 0
                   and common.served_from_store(proc.stdout)
                   == len(workload.cells)
                   and common.count_mismatches(
                       [common.hex_metrics(m) for m in cold_metrics],
                       common.eval_output_metrics(warm_out)) == 0,
                   "warm sweep")

        db = common.work_path(f"warehouse-{cycle}.sqlite")
        wall, proc = launcher.run(["query", "load", "--store", store,
                                   "--db", db], "etl")
        etl.append(wall)
        ops.record(proc.returncode == 0 and common.loaded_cells(proc.stdout)
                   == len(workload.cells), "etl load")
        cycle += 1

    tail_label, tail_s = common.tail(setup)
    detail = {"cycles": cycle, "setup_cells": len(setup),
              "tail_percentile": tail_label}
    if not trace:
        metrics = {
            "setup_s": common.median(setup),
            "eval_wall_s": common.median(cold),
            "warm_wall_s": common.median(warm),
            "p50_ms": 1e3 * common.median(setup),
            "tail_ms": 1e3 * tail_s,
            "etl_wall_s": common.median(etl),
        }
        return {"ops": ops, "metrics": metrics, "detail": detail}

    traces = launcher.traces()
    detail["unpatched"] = layers.unpatched(traces)
    metrics = layers.from_traces(traces, "cold", workload.engine)
    if workload.engine == "strategy" and metrics["engine.strategy.sim_s"]:
        metrics["engine.strategy.reps_per_s"] = (
            len(workload.cells) * STRATEGY_REPS_PER_CELL
            / metrics["engine.strategy.sim_s"])
    metrics["import.numeric_floor_s"] = common.numeric_floor()
    # Tracing overhead: one untraced cold sweep against the traced median.
    untraced, proc = launcher.run(
        ["eval", sweep_path, "--store", common.work_path("store-untraced"),
         "-o", common.work_path("cold-untraced.json"), "--force"], "cold",
        trace=False)
    ops.record(proc.returncode == 0, "untraced cold sweep")
    metrics["trace.overhead_pct"] = 100.0 * (common.median(cold) - untraced) \
        / untraced
    return {"ops": ops, "metrics": metrics, "detail": detail}


ANALYTIC = CliWorkload(ANALYTIC_SPEC, "analytic_sweep.json",
                       ANALYTIC_SPEC["sweep"], "analytic")
WORKLOADS = {
    "cli_analytic": ANALYTIC,
    "cli_strategy": CliWorkload(STRATEGY_SPEC, "strategy_sweep.json",
                                STRATEGY_SNAPSHOT_SWEEP, "strategy"),
}
