"""The three engines: cross-agreement, determinism, capability limits."""

import numpy as np
import pytest

from repro.api import (
    StudySpec,
    SystemSpec,
    UnsupportedMetricError,
    evaluate,
    get_evaluator,
    resolve_method,
)
from repro.api.evaluators import AUTO_FULL_CHAIN_MAX_N


class TestThreeWayAgreement:
    """Acceptance criterion: for a symmetric n=5 system, the analytic, mc
    and des engines agree on mean/variance within the stated tolerances."""

    SPEC = StudySpec(system=SystemSpec.symmetric(5, 1.0, 0.5),
                     metrics=("mean", "variance", "std", "rp_counts",
                              "completion_probabilities"),
                     reps=12_000, seed=2024, rel_tol=0.05)

    @pytest.fixture(scope="class")
    def evaluations(self):
        return {m: evaluate(self.SPEC, method=m)
                for m in ("analytic", "mc", "des")}

    def test_means_agree_within_tolerance(self, evaluations):
        exact = evaluations["analytic"]
        for method in ("mc", "des"):
            stochastic = evaluations[method]
            rel = abs(stochastic.mean - exact.mean) / exact.mean
            assert rel < self.SPEC.rel_tol, (method, rel)
            assert exact.agrees_with(stochastic)
            # ... and the error is statistically plausible: within 5 sigma.
            assert abs(stochastic.mean - exact.mean) < 5 * stochastic.stderr

    def test_variances_agree_within_tolerance(self, evaluations):
        exact = evaluations["analytic"].metrics["variance"]
        for method in ("mc", "des"):
            est = evaluations[method].metrics["variance"]
            assert abs(est - exact) / exact < 0.15, method

    def test_rp_counts_and_q_agree(self, evaluations):
        exact_counts = np.asarray(evaluations["analytic"].rp_counts)
        exact_q = np.asarray(
            evaluations["analytic"].completion_probabilities)
        np.testing.assert_allclose(exact_q, 0.2, atol=1e-9)  # symmetric
        for method in ("mc", "des"):
            counts = np.asarray(evaluations[method].rp_counts)
            q = np.asarray(evaluations[method].completion_probabilities)
            np.testing.assert_allclose(counts, exact_counts, rtol=0.06)
            np.testing.assert_allclose(q, exact_q, atol=0.02)

    def test_stochastic_metadata(self, evaluations):
        assert evaluations["analytic"].n_samples is None
        for method in ("mc", "des"):
            assert evaluations[method].n_samples == 12_000
            assert evaluations[method].stderr > 0.0


class TestKnownValues:
    def test_table1_case1_mean(self):
        spec = StudySpec(system=SystemSpec.table1_case(1), metrics=("mean",),
                         options={"prefer_simplified": False})
        assert evaluate(spec, method="analytic").mean == pytest.approx(2.5)

    def test_cdf_grid_matches_model(self):
        from repro.markov.recovery_line_interval import RecoveryLineIntervalModel
        from repro.workloads.generators import paper_table1_case
        times = (0.5, 1.0, 2.0)
        spec = StudySpec(system=SystemSpec.table1_case(1),
                         metrics=("pdf", "cdf", "sf"), times=times,
                         options={"prefer_simplified": False})
        evaluation = evaluate(spec, method="analytic")
        model = RecoveryLineIntervalModel(paper_table1_case(1),
                                          prefer_simplified=False)
        grid = np.asarray(times)
        np.testing.assert_array_equal(evaluation.distributions["cdf"],
                                      np.asarray(model.cdf(grid)))
        np.testing.assert_array_equal(evaluation.distributions["pdf"],
                                      np.asarray(model.pdf(grid)))

    def test_empirical_cdf_converges(self):
        spec = StudySpec(system=SystemSpec.table1_case(1), metrics=("cdf",),
                         times=(1.0, 2.5, 5.0), reps=8000, seed=3)
        exact = evaluate(StudySpec(system=SystemSpec.table1_case(1),
                                   metrics=("cdf",), times=(1.0, 2.5, 5.0),
                                   options={"prefer_simplified": False}),
                         method="analytic")
        mc = evaluate(spec, method="mc")
        np.testing.assert_allclose(mc.distributions["cdf"],
                                   exact.distributions["cdf"], atol=0.02)


class TestDesSampler:
    def test_same_seed_is_bit_identical(self):
        from repro.sim.interval_sampler import DESIntervalSampler
        from repro.core.parameters import SystemParameters
        params = SystemParameters.symmetric(3, 1.0, 1.0)
        a = DESIntervalSampler(params, seed=42).sample_intervals(200)
        b = DESIntervalSampler(params, seed=42).sample_intervals(200)
        np.testing.assert_array_equal(a.lengths, b.lengths)
        np.testing.assert_array_equal(a.rp_counts, b.rp_counts)
        np.testing.assert_array_equal(a.completing_process,
                                      b.completing_process)

    def test_counts_are_consistent_with_lengths(self):
        from repro.sim.interval_sampler import DESIntervalSampler
        from repro.core.parameters import SystemParameters
        params = SystemParameters.symmetric(3, 1.0, 1.0)
        sample = DESIntervalSampler(params, seed=7).sample_intervals(500)
        assert sample.n_samples == 500
        assert (sample.lengths > 0).all()
        # Every interval ends with the completing process's RP: >= 1 count.
        rows = np.arange(500)
        assert (sample.rp_counts[rows, sample.completing_process] >= 1).all()

    def test_no_interactions_reduces_to_pooled_exponential(self):
        from repro.sim.interval_sampler import DESIntervalSampler
        from repro.core.parameters import SystemParameters
        # With lam = 0 no bits are ever cleared, so every recovery point
        # completes a line: X ~ Exp(n mu) (the chain's direct R4 transition).
        params = SystemParameters.symmetric(2, 2.0, 0.0)
        sample = DESIntervalSampler(params, seed=5).sample_intervals(4000)
        assert sample.mean_interval() == pytest.approx(0.25, rel=0.05)


class TestAnalyticPrecisionGuard:
    def test_overflowed_solve_raises_instead_of_returning_garbage(self):
        # n=30 at per-pair lam=0.5 puts E[X] past float64: the lumped solve
        # returns a negative mean, which must surface as an error.
        spec = StudySpec(system=SystemSpec.symmetric(30, 1.0, 0.5),
                         metrics=("mean",))
        with pytest.raises(ArithmeticError, match="lost precision"):
            evaluate(spec, method="analytic")

    def test_realistic_large_n_still_fine(self):
        # rho ~ 1 stays well inside range even at n=40.
        spec = StudySpec(system=SystemSpec.symmetric(40, 1.0,
                                                     40 / (40 * 39)),
                         metrics=("mean",))
        evaluation = evaluate(spec, method="analytic")
        assert evaluation.backend == "lumped"
        assert 0.0 < evaluation.mean < 1e12


class TestMethodResolution:
    def test_auto_small_system_is_analytic(self):
        spec = StudySpec(system=SystemSpec.symmetric(5, 1.0, 1.0))
        assert resolve_method(spec) == "analytic"

    def test_auto_large_symmetric_moments_stay_analytic(self):
        spec = StudySpec(system=SystemSpec.symmetric(
            AUTO_FULL_CHAIN_MAX_N + 6, 1.0, 0.1), metrics=("mean", "std"))
        assert resolve_method(spec) == "analytic"

    def test_auto_large_symmetric_forced_full_chain_goes_mc(self):
        # options forcing the full chain disqualify the lumped shortcut:
        # auto must not hand the analytic engine a 2^n-state build.
        spec = StudySpec(system=SystemSpec.symmetric(
            AUTO_FULL_CHAIN_MAX_N + 6, 1.0, 0.1), metrics=("mean",),
            options={"prefer_simplified": False})
        assert resolve_method(spec) == "mc"

    def test_auto_large_with_counts_goes_mc(self):
        spec = StudySpec(system=SystemSpec.symmetric(
            AUTO_FULL_CHAIN_MAX_N + 6, 1.0, 0.1),
            metrics=("mean", "rp_counts"))
        assert resolve_method(spec) == "mc"

    def test_auto_large_heterogeneous_goes_mc(self):
        spec = StudySpec(system=SystemSpec.heterogeneous(
            AUTO_FULL_CHAIN_MAX_N + 6, mu_gradient=2.0))
        assert resolve_method(spec) == "mc"

    def test_auto_large_pdf_is_an_error(self):
        spec = StudySpec(system=SystemSpec.heterogeneous(
            AUTO_FULL_CHAIN_MAX_N + 6, mu_gradient=2.0),
            metrics=("pdf",), times=(1.0,))
        with pytest.raises(UnsupportedMetricError):
            resolve_method(spec)

    def test_stochastic_engines_reject_pdf(self):
        spec = StudySpec(system=SystemSpec.symmetric(3, 1.0, 1.0),
                         metrics=("pdf",), times=(1.0,))
        for method in ("mc", "des"):
            with pytest.raises(UnsupportedMetricError):
                resolve_method(spec, method)

    def test_unknown_method_lists_known(self):
        spec = StudySpec(system=SystemSpec.symmetric(3, 1.0, 1.0))
        with pytest.raises(KeyError, match="analytic"):
            resolve_method(spec, "quantum")

    def test_registry_lookup(self):
        assert get_evaluator("analytic").name == "analytic"
        assert get_evaluator("mc").stochastic
        assert get_evaluator("des").stochastic
        assert not get_evaluator("analytic").stochastic


class TestAnalyticPhases:
    def test_structure_fill_runs_in_assembly_and_lu_in_solve(
            self, monkeypatch):
        """``--timing`` charges the chain's assembly (the structure fill)
        to ``assembly`` and its factorisation to ``solve``."""
        import contextlib

        from repro import bench
        from repro.markov.structure_cache import (GeneratorStructure,
                                                  clear_structure_cache)
        from repro.util import blas

        active, seen = [], {}
        timed = bench.PhaseTimer.phase

        @contextlib.contextmanager
        def tracked(self, name):
            active.append(name)
            try:
                with timed(self, name):
                    yield
            finally:
                active.pop()

        def spy(name, func):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, list(active))
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bench.PhaseTimer, "phase", tracked)
        monkeypatch.setattr(GeneratorStructure, "fill_dense",
                            spy("fill", GeneratorStructure.fill_dense))
        monkeypatch.setattr(blas, "lu_factor", spy("lu", blas.lu_factor))
        clear_structure_cache()
        spec = StudySpec(system=SystemSpec.heterogeneous(
            6, mu_gradient=2.0), metrics=("mean", "variance"))
        with bench.collect_phases():
            evaluate(spec, method="analytic")
        assert seen == {"fill": ["assembly"], "lu": ["solve"]}


class TestAnalyticModules:
    """The analytic engine names scipy only for cells whose path calls it."""

    SCIPY_SPARSE = ("scipy.sparse", "scipy.sparse.linalg")

    def test_dense_limit_matches_the_backend_policy(self):
        from repro.api.evaluators import _DENSE_FULL_CHAIN_MAX_N
        from repro.markov.operators import DENSE_STATE_LIMIT
        assert 2 ** _DENSE_FULL_CHAIN_MAX_N == DENSE_STATE_LIMIT

    @pytest.mark.parametrize("spec, backend, scipy_modules", [
        (StudySpec(system=SystemSpec.heterogeneous(9)), "dense", ()),
        (StudySpec(system=SystemSpec.heterogeneous(10)), "sparse",
         SCIPY_SPARSE),
        (StudySpec(system=SystemSpec.heterogeneous(
            6, mu_gradient=2.0), options={"backend": "sparse"}), "sparse",
         SCIPY_SPARSE),
        (StudySpec(system=SystemSpec.heterogeneous(
            10, mu_gradient=2.0), options={"backend": "dense"}), "dense", ()),
        (StudySpec(system=SystemSpec.symmetric(12, 1.0, 0.5)), "lumped", ()),
        (StudySpec(system=SystemSpec.symmetric(11, 1.0, 0.5),
                   metrics=("mean", "rp_counts")), "lumped", SCIPY_SPARSE),
        (StudySpec(system=SystemSpec.heterogeneous(4), metrics=("pdf",),
                   times=(0.5, 1.0)), "dense", ("scipy.linalg",)),
    ], ids=["n9", "n10", "forced-sparse", "forced-dense", "lumped",
            "lumped-counts", "pdf"])
    def test_scipy_is_named_where_the_path_calls_it(self, spec, backend,
                                                     scipy_modules):
        modules = get_evaluator("analytic").modules_for(spec)
        assert "repro.util.blas" in modules
        assert tuple(m for m in modules if m.startswith("scipy")) \
            == scipy_modules
        assert evaluate(spec, method="analytic").backend == backend

    def test_non_exponential_law_names_the_fitter(self):
        spec = StudySpec(system=SystemSpec.from_dict({
            "kind": "symmetric", "n": 3, "mu": 1.0, "lam": 0.5,
            "failure_law": "weibull", "failure_shape": 2.0}))
        assert "repro.markov.phfit" in \
            get_evaluator("analytic").modules_for(spec)
