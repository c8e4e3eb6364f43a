"""Closed-form analyses: Sections 3 and 4 of the paper, plus strategy selection.

* :mod:`~repro.analysis.order_statistics` — moments of the maximum of independent
  exponentials (the random variable ``Z = max{y_1,…,y_n}`` both sections rely on);
* :mod:`~repro.analysis.synchronized_loss` — the mean computation-power loss
  ``CL = n∫(1−G(t))dt − Σ1/μ_i`` of synchronized recovery blocks;
* :mod:`~repro.analysis.prp_overhead` — storage, time overhead and rollback-distance
  bound of the pseudo-recovery-point scheme;
* :mod:`~repro.analysis.rollback_distance` — rollback-distance estimates for the
  asynchronous scheme (the interval ``X`` as an inner bound, per Section 5);
* :mod:`~repro.analysis.comparison` — side-by-side comparison and the selection
  guidance the paper sketches in its conclusion.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use, so a
#: closed-form cell loads only its own model and not the Markov chain stack
#: the asynchronous rollback model computes with.
_EXPORTS = {
    **dict.fromkeys(("expected_maximum_exponential", "maximum_exponential_cdf",
                     "maximum_exponential_pdf", "expected_range_exponential"),
                    "repro.analysis.order_statistics"),
    **dict.fromkeys(("SynchronizedLossModel", "computation_loss",
                     "computation_loss_homogeneous"),
                    "repro.analysis.synchronized_loss"),
    "PRPOverheadModel": "repro.analysis.prp_overhead",
    "AsynchronousRollbackModel": "repro.analysis.rollback_distance",
    **dict.fromkeys(("StrategyComparison", "SchemeCosts", "recommend_scheme"),
                    "repro.analysis.comparison"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
