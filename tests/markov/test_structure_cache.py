"""The structure-cached generator assembly: bit-identity and memoization.

The cache's contract (module docstring of :mod:`repro.markov.structure_cache`)
is that both refill paths reproduce the legacy loop builders *exactly* — not
approximately — so a rates-only sweep can reuse one structure without any
cell's numbers moving.  These tests pin that contract and the memo behaviour
(hits on rate changes, misses on zero-pattern changes).
"""

import numpy as np
import pytest

from repro.core.parameters import SystemParameters
from repro.markov.generator import (build_generator, build_generator_sparse,
                                    build_phase_type)
from repro.markov.recovery_line_interval import RecoveryLineIntervalModel
from repro.markov.structure_cache import (cache_info, clear_structure_cache,
                                          structure_for)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_structure_cache()
    yield
    clear_structure_cache()


def heterogeneous_params(n=5, scale=1.0):
    """A dense, fully asymmetric parameterisation (every pair interacts)."""
    mu = [1.0 + 0.25 * i for i in range(n)]
    pairs = [(i, j, scale * (0.1 + 0.05 * (i + j)))
             for i in range(n) for j in range(i + 1, n)]
    return SystemParameters.from_pair_rates(mu, pairs)


def sparse_pattern_params(n=5, scale=1.0):
    """A parameterisation with zeroed pairs (ring topology)."""
    mu = [1.0 + 0.2 * i for i in range(n)]
    pairs = [(i, (i + 1) % n, scale * (0.2 + 0.1 * i)) for i in range(n)]
    return SystemParameters.from_pair_rates(mu, pairs)


class TestBitIdentity:
    """Cached refills equal the loop builders bit for bit."""

    @pytest.mark.parametrize("params_factory",
                             [heterogeneous_params, sparse_pattern_params])
    def test_refill_sparse_equals_loop_builder(self, params_factory):
        params = params_factory()
        expected, _space = build_generator_sparse(params)
        got = structure_for(params).refill_sparse(params)
        assert got.shape == expected.shape
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        # Bit-for-bit, not allclose: the refill must be the same floats.
        assert np.array_equal(got.data, expected.data)

    @pytest.mark.parametrize("params_factory",
                             [heterogeneous_params, sparse_pattern_params])
    def test_fill_dense_equals_loop_builder(self, params_factory):
        params = params_factory()
        expected, space = build_generator(params)
        k = space.n_transient
        block = structure_for(params).fill_dense(params)
        # The transient states are indices 0 … k − 1; both layouts of the
        # block hold the loop builder's floats.
        assert np.array_equal(block.take_buffer(), expected[:k, :k])
        assert np.array_equal(block.T, expected[:k, :k])

    def test_refill_after_rate_change_matches_fresh_build(self):
        """The second fill of a reused structure is exact, not stale."""
        structure = structure_for(heterogeneous_params(scale=1.0))
        rescaled = heterogeneous_params(scale=1.7)
        assert structure_for(rescaled) is structure
        expected, _space = build_generator_sparse(rescaled)
        got = structure.refill_sparse(rescaled)
        assert np.array_equal(got.data, expected.data)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_build_phase_type_cache_on_equals_cache_off(self, backend):
        params = heterogeneous_params()
        on = build_phase_type(params, backend=backend, structure_cache=True)
        off = build_phase_type(params, backend=backend, structure_cache=False)
        assert np.array_equal(on.alpha, off.alpha)
        T_on = on.T.toarray() if hasattr(on.T, "toarray") else np.asarray(on.T)
        T_off = off.T.toarray() if hasattr(off.T, "toarray") \
            else np.asarray(off.T)
        assert np.array_equal(T_on, T_off)

    def test_interval_model_cache_on_equals_cache_off_over_sweep(self):
        """A rates-only mini sweep: every cell's moments are bit-identical."""
        for scale in (0.6, 1.0, 1.4, 2.2):
            params = heterogeneous_params(scale=scale)
            on = RecoveryLineIntervalModel(params, structure_cache=True)
            off = RecoveryLineIntervalModel(params, structure_cache=False)
            assert on.mean_interval().hex() == off.mean_interval().hex()
            assert on.interval_variance().hex() == \
                off.interval_variance().hex()


class TestMemoization:
    def test_rates_only_sweep_hits(self):
        structure_for(heterogeneous_params(scale=1.0))
        assert cache_info() == {"hits": 0, "misses": 1, "size": 1}
        for scale in (1.3, 1.6, 1.9):
            structure_for(heterogeneous_params(scale=scale))
        assert cache_info() == {"hits": 3, "misses": 1, "size": 1}

    def test_zero_pattern_change_misses(self):
        structure_for(heterogeneous_params())
        structure_for(sparse_pattern_params())     # different zero pattern
        assert cache_info()["misses"] == 2
        # ... and each pattern then hits its own entry.
        structure_for(sparse_pattern_params(scale=1.5))
        assert cache_info()["hits"] == 1

    def test_different_n_misses(self):
        structure_for(heterogeneous_params(n=4))
        structure_for(heterogeneous_params(n=5))
        assert cache_info() == {"hits": 0, "misses": 2, "size": 2}

    def test_size_mismatch_rejected(self):
        structure = structure_for(heterogeneous_params(n=4))
        with pytest.raises(ValueError, match="structure is for n=4"):
            structure.fill_values(heterogeneous_params(n=5))
