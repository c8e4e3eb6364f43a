"""Dense results are the same bits at any BLAS thread count.

The analytic snapshot (``benchmarks/snapshots/analytic_sweep.json``) was
pinned with one BLAS thread.  :func:`repro.util.blas.pin_blas_threads` pins
OpenBLAS at run time, so the 100-cell sweep must reproduce it whether the
environment leaves the thread count to OpenBLAS or asks for one thread per
CPU.
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


@pytest.mark.parametrize("threads", [None, os.cpu_count() or 1],
                         ids=["unset", "cpu_count"])
def test_analytic_sweep_matches_snapshot_at_any_thread_count(threads):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(SWEEP),
                           BENCHMARKS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == _snapshot()


def test_pinning_happens_once_per_process():
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS too)
    pin_blas_threads()
    assert pin_blas_threads() == 0
