"""The structure-cached dense cell: one k × k buffer, ``T`` only on demand.

A structure-cached dense phase type holds its transient block ``T`` as one
Fortran-ordered buffer that the first solve factors in place; the C-ordered
``T`` is built only when a reader needs the matrix itself.  These tests pin
that every consumer still gets the bits of the uncached build in either call
order, that a mean/variance cell allocates one k × k array and makes one
LU factorisation (a counts cell one more of each), that caller-supplied
matrices keep their copy and checks, and that threads sharing a cached
structure keep their bits.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.markov.ctmc import PhaseType
from repro.markov.generator import build_generator, build_phase_type
from repro.markov.recovery_line_interval import RecoveryLineIntervalModel
from repro.markov.structure_cache import (GeneratorStructure,
                                          clear_structure_cache, structure_for)
from repro.util import blas


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


def heterogeneous_n9(lam_base=0.5):
    """The acceptance sweep's system: 512 transient states, dense."""
    return SystemParameters.heterogeneous(9, mu_base=1.0, mu_gradient=2.0,
                                          lam_base=lam_base, locality=1.0)


def ring_n7():
    """A sparse interaction pattern: each process talks to its neighbour."""
    n = 7
    return SystemParameters.from_pair_rates(
        [1.0 + 0.2 * i for i in range(n)],
        [(i, (i + 1) % n, 0.2 + 0.1 * i) for i in range(n)])


SYSTEMS = [heterogeneous_n9, ring_n7]
GRID = np.linspace(0.0, 3.0, 7)


def hexes(values):
    return [float(v).hex() for v in np.atleast_1d(values)]


def consumers(model, *, t_first):
    """Every consumer of the phase type, in hex, reading ``T`` first or
    solving first."""
    out = {}
    if t_first:
        out["T"] = hexes(model.phase_type.T.ravel())
    out["mean"] = hexes(model.mean_interval())
    out["variance"] = hexes(model.interval_variance())
    out["pdf"] = hexes(model.pdf(GRID))
    out["cdf"] = hexes(model.cdf(GRID))
    out["sf"] = hexes(model.survival(GRID))
    out["rp_counts"] = hexes(model.expected_rp_counts())
    out["completion"] = hexes(model.completion_probabilities())
    out["occupancy"] = hexes(model.phase_type.occupancy())
    if not t_first:
        out["T"] = hexes(model.phase_type.T.ravel())
    return out


def model(params, structure_cache):
    return RecoveryLineIntervalModel(params, prefer_simplified=False,
                                     backend="dense",
                                     structure_cache=structure_cache)


class TestBitIdentity:
    @pytest.mark.parametrize("t_first", [False, True],
                             ids=["solve-first", "T-first"])
    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda f: f.__name__)
    def test_every_consumer_equals_the_uncached_build(self, system, t_first):
        params = system()
        expected = consumers(model(params, False), t_first=t_first)
        assert consumers(model(params, True), t_first=t_first) == expected

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda f: f.__name__)
    def test_T_after_a_solve_is_the_generator_block(self, system):
        params = system()
        ph = build_phase_type(params, backend="dense")
        ph.variance()
        T = ph.T
        assert T.flags.c_contiguous and not T.flags.writeable
        H, space = build_generator(params)
        k = space.n_transient
        assert T.tobytes() == np.ascontiguousarray(H[:k, :k]).tobytes()
        assert ph.T is T                      # built once


class TestLeanCell:
    def test_mean_variance_cell_allocates_one_block_and_one_lu(
            self, monkeypatch):
        calls = {"lu_factor": 0, "lu_solve": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(blas, name, counting(name, getattr(blas, name)))
        # A first cell allocates the structure and its scratch; the second
        # cell, measured, is a sweep cell's steady state.
        build_phase_type(heterogeneous_n9(0.4)).mean()
        calls.update(lu_factor=0, lu_solve=0)
        params = heterogeneous_n9(0.5)
        block_bytes = 512 * 512 * 8
        tracemalloc.start()
        try:
            ph = build_phase_type(params)
            mean, variance = ph.mean(), ph.variance()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == {"lu_factor": 1, "lu_solve": 2}
        # One k × k array (the factored buffer) and O(nnz) besides: a C copy
        # of T or an LU copy would double the peak.
        assert block_bytes <= peak < 1.5 * block_bytes
        off = build_phase_type(params, structure_cache=False)
        assert mean.hex() == off.mean().hex()
        assert variance.hex() == off.variance().hex()

    def test_counts_cell_factors_a_fresh_transpose_in_place(self):
        """``rp_counts`` adds one transpose factorisation: a freshly filled
        C-ordered ``T`` (``Tᵀ`` in Fortran order) factored in place, not the
        shared ``T`` plus an LU copy of it."""
        build_phase_type(heterogeneous_n9(0.4)).mean()
        params = heterogeneous_n9(0.5)
        block_bytes = 512 * 512 * 8
        tracemalloc.start()
        try:
            cached = model(params, True)
            cached.mean_interval(), cached.interval_variance()
            counts = cached.expected_rp_counts()
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The factored buffer and the factored transpose: two k × k arrays.
        assert peak <= 2.5 * block_bytes
        off = model(params, False)
        assert hexes(counts) == hexes(off.expected_rp_counts())
        assert hexes(cached.completion_probabilities()) \
            == hexes(off.completion_probabilities())

    def test_fill_validates_the_values(self, monkeypatch):
        params = heterogeneous_n9()
        structure = structure_for(params)
        values = structure.fill_values(params)
        values[3] = -1.0
        monkeypatch.setattr(GeneratorStructure, "fill_values",
                            lambda self, p: values)
        with pytest.raises(ValueError, match="non-negative"):
            structure.fill_dense(params)


class TestCallerMatrix:
    def test_caller_T_is_copied(self):
        T = np.array([[-3.0, 1.0], [0.5, -2.0]])
        ph = PhaseType(alpha=np.array([1.0, 0.0]), T=T)
        mean = ph.mean()
        T[0, 1] = 2.0
        assert ph.T[0, 1] == 1.0 and not ph.T.flags.writeable
        assert ph.mean() == mean

    @pytest.mark.parametrize("T", [
        [[-1.0, -0.5], [0.0, -1.0]],      # negative off-diagonal
        [[1.0, 0.0], [0.0, -1.0]],        # positive diagonal
        [[-1.0, 2.0], [0.0, -1.0]],       # positive row sum
    ])
    def test_malformed_caller_T_is_rejected(self, T):
        with pytest.raises(ValueError):
            PhaseType(alpha=np.array([1.0, 0.0]), T=np.array(T))


class TestThreads:
    def test_concurrent_fills_of_one_structure_keep_their_bits(self):
        """Threads evaluating cells of one cached structure at once each get
        their own cell's bits: the shared scratch is filled under a lock."""
        def params(i):
            return SystemParameters.heterogeneous(7, mu_base=1.0,
                                                  mu_gradient=2.0,
                                                  lam_base=0.2 + 0.05 * i,
                                                  locality=1.0)

        expected = [build_phase_type(params(i)).mean().hex()
                    for i in range(8)]
        got, errors = [], []

        def work(t):
            try:
                for r in range(40):
                    i = (t + r) % 8
                    got.append((i, build_phase_type(params(i)).mean().hex()))
            except Exception as exc:          # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(got) == 4 * 40
        assert all(value == expected[i] for i, value in got)
