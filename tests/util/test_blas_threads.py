"""Dense results are the same bits at any BLAS thread count.

The analytic snapshot (``benchmarks/snapshots/analytic_sweep.json``) was
pinned with one BLAS thread.  :mod:`repro.util.blas` sets the OpenBLAS it
binds the dense LU from to one thread on import, and
:func:`~repro.util.blas.pin_blas_threads` every other OpenBLAS, so the
100-cell sweep must reproduce it whether the environment leaves the thread
count to OpenBLAS or asks for one thread per CPU, and whichever dense solve
runs first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.util.blas import pin_blas_threads

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BENCHMARKS = os.path.join(os.path.dirname(SRC), "benchmarks")

SWEEP = """
import json, sys
sys.path.insert(0, sys.argv[1])
from bench_workloads import ANALYTIC_SPEC, hexify
from repro.api import StudySpec
from repro.api.facade import evaluate_in_context
from repro.runner import ExecutionContext

spec = StudySpec.from_dict(ANALYTIC_SPEC)
evaluations = evaluate_in_context(ExecutionContext(seed=spec.seed),
                                  list(spec.cells()), method="analytic")
print(json.dumps(hexify([e.metrics for e in evaluations])))
"""


def _snapshot():
    path = os.path.join(BENCHMARKS, "snapshots", "analytic_sweep.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["metrics_hex"]


#: A numpy-only dense solve first: it pins the BLAS threads of the process
#: before any scipy module is imported, and the LAPACK binding must still
#: run the sweep's LU on one thread.
SOLVE_LINEAR_FIRST = """
import numpy as np
from repro.util.linalg import solve_linear
solve_linear(np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones(2))
""" + SWEEP


def _sweep_in_subprocess(code, threads):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           BENCHMARKS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


THREADS = pytest.mark.parametrize("threads", [None, os.cpu_count() or 1],
                                  ids=["unset", "cpu_count"])


@THREADS
def test_analytic_sweep_matches_snapshot_at_any_thread_count(threads):
    assert _sweep_in_subprocess(SWEEP, threads) == _snapshot()


@THREADS
def test_pinning_before_the_binding_is_used_keeps_the_snapshot(threads):
    assert _sweep_in_subprocess(SOLVE_LINEAR_FIRST, threads) == _snapshot()


def test_pinning_happens_once_per_process():
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS too)
    pin_blas_threads()
    assert pin_blas_threads() == 0
