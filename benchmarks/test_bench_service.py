"""Service throughput trajectory: multi-tenant burst vs direct evaluation.

The workload models the service's reason to exist: T tenants each submit
the same C-cell sweep concurrently (T·C submissions, C unique cells).

``direct_sequential``  (the *before*)
    Every tenant evaluates every cell through :func:`repro.evaluate`,
    cell at a time — no sharing, T·C engine executions.
``service_burst``  (the *after*)
    The same submissions through one :class:`EvaluationService` — the
    single-flight registry collapses the duplicates, the admission window
    coalesces the unique cells into one backend fan-out, and the recorded
    ``extra`` carries the dedup hit rate and mean batch occupancy.

Both measure submissions/second over the identical submission stream, so
the two BENCH entries are directly comparable.  Bit-identity runs on every
invocation: each service-served evaluation must be hex-identical to its
direct counterpart.  Recording/guarding follows the trajectory pattern
(``REPRO_BENCH_RECORD`` / ``REPRO_BENCH_GUARD``, see
``test_bench_trajectory``).
"""

import asyncio
import time

from bench_workloads import hexify

from repro.api import StudySpec, evaluate
from repro.service import EvaluationService, ServiceClient

from test_bench_trajectory import check_guard

#: Tenants submitting concurrently and unique cells per tenant's sweep.
TENANTS = 3
SWEEP_CELLS = 20

SERVICE_SPEC = {
    "system": {"kind": "heterogeneous", "n": 9, "mu_base": 1.0,
               "mu_gradient": 2.0, "lam_base": 0.5, "locality": 1.0},
    "metrics": ["mean", "variance"],
    "sweep": {"lam_base": [round(0.3 + 0.02 * i, 6)
                           for i in range(SWEEP_CELLS)]},
}

#: Timed repetitions; the recorded wall is the best of these.
BENCH_REPEATS = 3


def run_direct():
    """The before: every tenant evaluates every cell, no sharing."""
    spec = StudySpec.from_dict(SERVICE_SPEC)
    cells = list(spec.cells())
    metrics, wall = None, float("inf")
    for _ in range(BENCH_REPEATS):
        start = time.perf_counter()
        evaluations = [evaluate(cell, "analytic")
                       for _tenant in range(TENANTS) for cell in cells]
        wall = min(wall, time.perf_counter() - start)
        if metrics is None:
            metrics = [e.metrics for e in evaluations]
    return metrics, wall


def run_service():
    """The after: the same T·C submissions through one shared service."""
    spec = StudySpec.from_dict(SERVICE_SPEC)

    async def burst():
        # A fresh service per repeat: cold LRU, so dedup does the work.
        service = EvaluationService(batch_window=0.02,
                                    max_batch=TENANTS * SWEEP_CELLS + 1)
        clients = [ServiceClient(service, tenant=f"tenant-{i}")
                   for i in range(TENANTS)]
        start = time.perf_counter()
        outcomes = await asyncio.gather(
            *(client.submit(spec, "analytic") for client in clients))
        wall = time.perf_counter() - start
        return outcomes, wall, service.stats()

    metrics, best_wall, stats = None, float("inf"), None
    for _ in range(BENCH_REPEATS):
        outcomes, wall, run_stats = asyncio.run(burst())
        if wall < best_wall:
            best_wall, stats = wall, run_stats
        if metrics is None:
            metrics = [cell.evaluation.metrics
                       for outcome in outcomes for cell in outcome.cells]
    return metrics, best_wall, stats


class TestServiceTrajectory:
    def test_bit_identity_and_throughput(self):
        direct_metrics, direct_wall = run_direct()
        service_metrics, service_wall, stats = run_service()
        assert hexify(service_metrics) == hexify(direct_metrics), (
            "service-served evaluations drifted from direct evaluation — "
            "the dedup/batching path broke bit-identity")
        n = TENANTS * SWEEP_CELLS
        check_guard("service", "direct_sequential_3tenants_20cells",
                    direct_wall, n, unit="submissions")
        check_guard("service", "service_burst_3tenants_20cells",
                    service_wall, n, unit="submissions",
                    extra={
                        "dedup_hit_rate": round(stats["dedup_hit_rate"], 4),
                        "mean_batch_occupancy":
                            stats["batching"]["mean_occupancy"],
                        "cells_executed": stats["cells_executed"],
                        "dispatches": stats["dispatches"],
                    })
        print(f"\n[service] direct: {n / direct_wall:.1f} subs/s; "
              f"service: {n / service_wall:.1f} subs/s; "
              f"dedup hit rate {stats['dedup_hit_rate']:.2%}; "
              f"mean batch occupancy "
              f"{stats['batching']['mean_occupancy']:.1f}")

    def test_dedup_collapses_duplicate_submissions(self):
        _metrics, _wall, stats = run_service()
        assert stats["cells_executed"] == SWEEP_CELLS
        assert stats["cells_submitted"] == TENANTS * SWEEP_CELLS
        expected = (TENANTS - 1) * SWEEP_CELLS / (TENANTS * SWEEP_CELLS)
        assert stats["dedup_hit_rate"] >= expected
