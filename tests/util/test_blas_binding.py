"""The dense LU bound from scipy's OpenBLAS is scipy's LU, bit for bit.

:mod:`repro.util.blas` calls ``getrf``/``getrs`` of the OpenBLAS file the
scipy wheel bundles through ctypes, or scipy.linalg's own wrappers where
that file or its symbols are absent.  Both must give the bits
``scipy.linalg.lu_factor``/``lu_solve`` give, keep scipy's input checks and
warnings, and reproduce the analytic hex snapshot.
"""

from __future__ import annotations

import ctypes.util
import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy import linalg as sla

import repro
from repro.markov.structure_cache import clear_structure_cache
from repro.util import blas

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BENCHMARKS = os.path.join(os.path.dirname(SRC), "benchmarks")

ctypes_bound = pytest.mark.skipif(
    blas.numerics()["binding"] != "openblas-ctypes",
    reason="scipy's OpenBLAS is not a wheel's bundled file here")


def fortran(a):
    return np.array(a, dtype=np.float64, order="F")


class TestSameBitsAsScipy:
    @pytest.mark.parametrize("order", [1, 2, 7, 64, 300, 512])
    def test_factors_and_solves_are_bit_equal(self, order):
        rng = np.random.default_rng(order)
        for _ in range(3):
            a = rng.standard_normal((order, order))
            lu, piv = blas.lu_factor(fortran(a))
            ref_lu, ref_piv = sla.lu_factor(fortran(a), overwrite_a=True,
                                            check_finite=False)
            assert lu.tobytes() == ref_lu.tobytes()
            assert piv.dtype == ref_piv.dtype
            assert piv.tobytes() == ref_piv.tobytes()
            for b in (rng.standard_normal(order),
                      rng.standard_normal((order, 3))):
                x = blas.lu_solve((lu, piv), b)
                ref = sla.lu_solve((ref_lu, ref_piv), b, check_finite=False)
                assert x.shape == ref.shape
                assert x.tobytes() == ref.tobytes()

    def test_factors_in_place_and_copies_b(self):
        a = fortran([[4.0, 3.0], [6.0, 3.0]])
        b = np.array([1.0, 2.0])
        lu, piv = blas.lu_factor(a)
        assert lu is a
        x = blas.lu_solve((lu, piv), b)
        assert b.tolist() == [1.0, 2.0]
        assert np.allclose([[4.0, 3.0], [6.0, 3.0]] @ x, b)

    def test_empty_system(self):
        lu, piv = blas.lu_factor(np.empty((0, 0), order="F"))
        assert lu.shape == (0, 0) and piv.shape == (0,)
        assert blas.lu_solve((lu, piv), np.empty(0)).shape == (0,)


class TestChecks:
    @pytest.mark.parametrize("a", [
        np.eye(3),                                    # C-ordered
        fortran(np.ones((2, 3))),                     # not square
        np.asfortranarray(np.eye(3, dtype=np.float32)),
        np.ones(3),                                   # not a matrix
    ], ids=["c-order", "not-square", "float32", "vector"])
    def test_rejects_what_it_cannot_factor_in_place(self, a):
        with pytest.raises(ValueError, match="in place"):
            blas.lu_factor(a)

    def test_rejects_a_read_only_buffer(self):
        a = fortran(np.eye(3))
        a.setflags(write=False)
        with pytest.raises(ValueError, match="in place"):
            blas.lu_factor(a)

    def test_singular_matrix_warns_as_scipy_does(self):
        singular = [[1.0, 2.0], [2.0, 4.0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blas.lu_factor(fortran(singular))
            sla.lu_factor(fortran(singular))
        ours, theirs = caught
        assert ours.category is theirs.category is sla.LinAlgWarning
        assert str(ours.message) == str(theirs.message)

    @ctypes_bound
    @pytest.mark.parametrize("factors", [
        (np.arange(9.0).reshape(3, 3), np.zeros(3, dtype=np.int32)),
        (fortran(np.eye(3)), np.zeros(3, dtype=np.int64)),
        (fortran(np.eye(3)), np.zeros(2, dtype=np.int32)),
    ], ids=["c-order", "int64-pivots", "short-pivots"])
    def test_solve_rejects_what_lu_factor_did_not_return(self, factors):
        with pytest.raises(ValueError, match="lu_factor"):
            blas.lu_solve(factors, np.ones(3))

    def test_mismatched_right_hand_side_is_rejected(self):
        factors = blas.lu_factor(fortran(np.eye(3)))
        with pytest.raises(ValueError, match="incompatible"):
            blas.lu_solve(factors, np.ones(4))


def analytic_sweep_hex():
    """The 100-cell analytic acceptance sweep, in process, as hex."""
    sys.path.insert(0, BENCHMARKS)
    try:
        from bench_workloads import ANALYTIC_SPEC, hexify
    finally:
        sys.path.remove(BENCHMARKS)
    from repro.api import StudySpec
    from repro.api.facade import evaluate_in_context
    from repro.runner import ExecutionContext

    clear_structure_cache()
    spec = StudySpec.from_dict(ANALYTIC_SPEC)
    evaluations = evaluate_in_context(ExecutionContext(seed=spec.seed),
                                      list(spec.cells()), method="analytic")
    return hexify([e.metrics for e in evaluations])


def snapshot_hex():
    path = os.path.join(BENCHMARKS, "snapshots", "analytic_sweep.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["metrics_hex"]


class TestBindings:
    @ctypes_bound
    def test_sweep_matches_snapshot_under_the_ctypes_binding(self):
        assert blas.numerics()["threads"] == 1
        assert analytic_sweep_hex() == snapshot_hex()

    @pytest.mark.parametrize("lookup", [
        None, "/nonexistent/libscipy_openblas.so",
        ctypes.util.find_library("m")],
        ids=["no-wheel-library", "unloadable", "no-scipy-symbols"])
    def test_sweep_matches_snapshot_under_the_scipy_fallback(
            self, monkeypatch, lookup):
        monkeypatch.setattr(blas, "_scipy_openblas", lambda: lookup)
        monkeypatch.setattr(blas, "_BOUND", blas._bind())
        assert blas.numerics() == {"binding": "scipy.linalg", "library": None,
                                   "threads": None, "config": None}
        assert analytic_sweep_hex() == snapshot_hex()


@ctypes_bound
@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="needs /proc/self/maps")
def test_binding_loads_the_file_scipy_linalg_maps():
    """The bound library is the OpenBLAS ``import scipy.linalg`` maps: a
    later scipy import maps no other OpenBLAS file."""
    code = textwrap.dedent("""
        import json, os

        def openblas_files():
            with open("/proc/self/maps", encoding="utf-8") as maps:
                paths = {line.split(maxsplit=5)[5].strip() for line in maps
                         if len(line.split(maxsplit=5)) == 6}
            return {os.path.realpath(p) for p in paths
                    if "openblas" in os.path.basename(p).lower()}

        import numpy
        before = openblas_files()
        from repro.util import blas
        bound = openblas_files() - before
        import scipy.linalg
        print(json.dumps({"path": os.path.realpath(blas._scipy_openblas()),
                          "bound": sorted(bound),
                          "after_scipy": sorted(openblas_files() - before)}))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["bound"] == [report["path"]]
    assert report["after_scipy"] == [report["path"]]
