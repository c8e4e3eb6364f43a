"""Cross-engine conformance for non-exponential failure laws and fault models.

The ``failure_law`` axis makes the MC and DES engines sample the true renewal
law exactly, while the analytic engine serves a *documented approximation*
(the phase-type fit of :mod:`repro.markov.phfit`).  The contract gated here:

* **MC vs DES** — two independent samplers of the same renewal system must
  agree within combined standard errors (z-test) and in distribution (KS);
* **analytic PH approximation** — the analytic mean must sit within the
  documented, law-specific tolerance of the MC reference
  (:data:`PH_MEAN_TOLERANCE`, mirrored in docs/ANALYTIC.md), and the bound
  *tightens* as the fitter order grows;
* **fault models** — common-mode strikes arrive at the declared Poisson rate,
  cascades only ever add contamination, and a spec without a ``fault_model``
  block is bit-identical to the pre-correlated-fault runtimes.

Fast cases run in tier-1; the ``slow``-marked deep cases sweep every law and
fitter order with large budgets in the nightly job.
"""

import dataclasses

import numpy as np
import pytest
import scipy.stats

from repro.api import StudySpec, SystemSpec, evaluate
from repro.core.parameters import SystemParameters
from repro.markov.montecarlo import RenewalModelSimulator
from repro.sim.interval_sampler import DESIntervalSampler
from repro.workloads.generators import strategy_workload
from repro.recovery.asynchronous import AsynchronousRuntime

pytestmark = pytest.mark.conformance

Z_BOUND = 4.5
KS_ALPHA = 1e-3

#: Documented relative-error bounds of the analytic PH approximation of
#: ``E[X]`` (vs the exact renewal law), keyed by (law, shape) then fitter
#: order (``None`` = two-moment minimal fit).  Calibrated on the n=3,
#: μ=1.0, λ=0.5 system against a 100k-replication MC reference; this table
#: MUST stay in sync with the one in docs/ANALYTIC.md.
PH_MEAN_TOLERANCE = {
    ("weibull", 2.0): {None: 0.05, 16: 0.05, 32: 0.03},
    ("weibull", 0.7): {None: 0.16, 16: 0.09, 32: 0.09},
    ("lognormal", 0.8): {None: 0.15, 16: 0.10, 32: 0.08},
}

FAST_LAW = ("weibull", 2.0)
DEEP_LAWS = sorted(PH_MEAN_TOLERANCE)


def renewal_spec(law, shape, *, reps, seed=211, **overrides):
    fields = dict(
        system=SystemSpec("symmetric", {"n": 3, "mu": 1.0, "lam": 0.5,
                                        "failure_law": law,
                                        "failure_shape": shape}),
        metrics=("mean", "variance"), reps=reps, seed=seed)
    fields.update(overrides)
    return StudySpec(**fields)


def assert_ph_mean_within(law, shape, order, mc, analytic):
    """The documented tolerance gate: |analytic − exact| within the table
    bound, where "exact" is the MC estimate widened by its sampling band."""
    tol = PH_MEAN_TOLERANCE[(law, shape)][order]
    slack = tol * mc.mean + Z_BOUND * mc.stderr
    assert abs(analytic.mean - mc.mean) <= slack, (
        f"{law}({shape}) order={order}: analytic {analytic.mean:.4f} vs "
        f"mc {mc.mean:.4f} ± {mc.stderr:.4f}, documented tol {tol}")


# --------------------------------------------------------------- fast tier-1
class TestFastWeibullAgreement:
    law, shape = FAST_LAW

    @pytest.fixture(scope="class")
    def engines(self):
        spec = renewal_spec(self.law, self.shape, reps=2000)
        out = {m: evaluate(spec, method=m) for m in ("mc", "des")}
        out["analytic"] = evaluate(spec, method="analytic")
        return out

    def test_auto_routes_to_mc(self):
        spec = renewal_spec(self.law, self.shape, reps=50)
        assert evaluate(spec).method == "mc"

    def test_analytic_backend_names_the_order(self, engines):
        assert engines["analytic"].backend.startswith("ph-approx-")

    def test_mc_vs_des_mean_z(self, engines):
        mc, des = engines["mc"], engines["des"]
        z = abs(mc.mean - des.mean) / np.hypot(mc.stderr, des.stderr)
        assert z < Z_BOUND, f"mc {mc.mean} vs des {des.mean}: z={z:.2f}"

    def test_mc_vs_des_ks(self):
        params = SystemParameters.symmetric(3, 1.0, 0.5)
        mc = RenewalModelSimulator(params, seed=5, failure_law=self.law,
                                   failure_shape=self.shape)
        des = DESIntervalSampler(params, seed=6, failure_law=self.law,
                                 failure_shape=self.shape)
        stat = scipy.stats.ks_2samp(mc.sample_intervals(1500).lengths,
                                    des.sample_intervals(1500).lengths)
        assert stat.pvalue > KS_ALPHA

    def test_analytic_within_documented_tolerance(self, engines):
        assert_ph_mean_within(self.law, self.shape, None,
                              engines["mc"], engines["analytic"])

    def test_explicit_order_within_documented_tolerance(self, engines):
        spec = renewal_spec(self.law, self.shape, reps=2000,
                            options={"ph_order": 16})
        analytic = evaluate(spec, method="analytic")
        # Best-of-budget: the label reports the order actually used, which
        # never exceeds the requested budget.
        used = int(analytic.backend.rsplit("-", 1)[1])
        assert 1 <= used <= 16
        assert_ph_mean_within(self.law, self.shape, 16,
                              engines["mc"], analytic)


class TestFastFaultModelConformance:
    def test_common_mode_strike_count_matches_poisson_rate(self):
        """Strikes over a fixed horizon form a Poisson process of the
        declared rate: z-test the observed count against rate·T.

        Zero costs keep every group member running continuously, so each
        strike injects exactly ``len(group)`` recorded errors.
        """
        rate, horizon, group = 0.4, 250.0, (0, 1)
        wl = strategy_workload(n=3, mu=1.0, lam=0.5, work=1e9,
                               error_rate=0.0, checkpoint_cost=0.0,
                               restart_cost=0.0,
                               fault_model={"groups": [list(group)],
                                            "common_mode_rate": rate})
        wl = dataclasses.replace(wl, max_sim_time=horizon)
        report = AsynchronousRuntime(wl, seed=17).run()
        strikes = report.extra["errors_injected"] / len(group)
        expected = rate * horizon
        z = abs(strikes - expected) / np.sqrt(expected)
        assert z < Z_BOUND, f"observed {strikes} strikes vs {expected}: z={z:.2f}"

    def test_cascades_only_add_contamination(self):
        """Averaged over replications, p=1 injects at least as many errors
        as p=0 on the same seeds (cascade draws live on their own stream)."""
        def mean_errors(p):
            totals = []
            for seed in range(8):
                wl = strategy_workload(
                    n=4, mu=1.0, lam=0.5, work=15.0, error_rate=0.0,
                    fault_model={"groups": [[0, 1]],
                                 "common_mode_rate": 0.4,
                                 "propagation_probability": p,
                                 "cascade_depth": 3})
                report = AsynchronousRuntime(wl, seed=seed).run()
                totals.append(report.extra["errors_injected"])
            return float(np.mean(totals))

        assert mean_errors(1.0) > mean_errors(0.0)

    def test_no_fault_model_is_bit_identical(self):
        """An absent fault_model block schedules nothing: two workloads built
        with and without the kwarg produce byte-equal run reports."""
        plain = strategy_workload(n=3, mu=1.0, lam=0.5, work=12.0,
                                  error_rate=0.05)
        explicit = strategy_workload(n=3, mu=1.0, lam=0.5, work=12.0,
                                     error_rate=0.05, fault_model=None)
        assert AsynchronousRuntime(plain, seed=3).run() == \
            AsynchronousRuntime(explicit, seed=3).run()

    def test_weibull_shape_one_matches_exponential_rate(self):
        """Weibull(1) fault interarrivals are exponential: the injected-error
        budgets must agree across the two draw paths within a z band."""
        def mean_errors(**law):
            totals = []
            for seed in range(10):
                wl = strategy_workload(n=3, mu=1.0, lam=0.5, work=20.0,
                                       error_rate=0.08, **law)
                report = AsynchronousRuntime(wl, seed=seed).run()
                totals.append(report.extra["errors_injected"])
            return np.asarray(totals, dtype=float)

        expo = mean_errors()
        weib = mean_errors(failure_law="weibull", failure_shape=1.0)
        stderr = np.hypot(expo.std(ddof=1), weib.std(ddof=1)) \
            / np.sqrt(len(expo))
        z = abs(expo.mean() - weib.mean()) / max(stderr, 1e-9)
        assert z < Z_BOUND


# ------------------------------------------------------------------ nightly
@pytest.mark.slow
class TestDeepLawSweep:
    @pytest.fixture(scope="class")
    def references(self):
        """One 30k-rep MC reference per (law, shape)."""
        return {key: evaluate(renewal_spec(*key, reps=30_000), method="mc")
                for key in DEEP_LAWS}

    @pytest.mark.parametrize("key", DEEP_LAWS)
    def test_mc_vs_des_deep_z(self, references, key):
        law, shape = key
        des = evaluate(renewal_spec(law, shape, reps=10_000, seed=97),
                       method="des")
        mc = references[key]
        z = abs(mc.mean - des.mean) / np.hypot(mc.stderr, des.stderr)
        assert z < Z_BOUND

    @pytest.mark.parametrize("key", DEEP_LAWS)
    @pytest.mark.parametrize("order", [None, 16, 32])
    def test_analytic_tolerance_table(self, references, key, order):
        law, shape = key
        options = {} if order is None else {"ph_order": order}
        analytic = evaluate(renewal_spec(law, shape, reps=1, options=options),
                            method="analytic")
        assert_ph_mean_within(law, shape, order, references[key], analytic)

    @pytest.mark.parametrize("key", DEEP_LAWS)
    def test_approximation_tightens_with_order(self, references, key):
        """The order-32 fit must not be worse than the minimal fit (the
        'tightens with order' clause of the documented contract)."""
        law, shape = key
        mc = references[key]
        minimal = evaluate(renewal_spec(law, shape, reps=1),
                           method="analytic")
        deep = evaluate(renewal_spec(law, shape, reps=1,
                                     options={"ph_order": 32}),
                        method="analytic")
        band = Z_BOUND * mc.stderr
        assert abs(deep.mean - mc.mean) <= abs(minimal.mean - mc.mean) + band
