"""Process behaviour models.

The recovery block is "a sequential program structure that consists of an
acceptance test, a recovery point and alternative algorithms" (Section 1).  This
package models that structure:

* :mod:`~repro.processes.program` — recovery-block specifications (primary +
  alternates) and their simulated execution;
* :mod:`~repro.processes.acceptance` — acceptance-test models (perfect, as assumed
  in Section 2.1, and imperfect variants with bounded coverage);
* :mod:`~repro.processes.communication` — interaction-pattern builders (all-pairs,
  ring, producer/consumer, star) that produce the pairwise rate matrices consumed
  by :class:`~repro.core.parameters.SystemParameters`.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use.
_EXPORTS = {
    **dict.fromkeys(("Alternate", "RecoveryBlockSpec",
                     "RecoveryBlockExecutor", "BlockOutcome"),
                    "repro.processes.program"),
    **dict.fromkeys(("AcceptanceTestModel", "PerfectAcceptanceTest",
                     "CoverageAcceptanceTest"), "repro.processes.acceptance"),
    **dict.fromkeys(("all_pairs_rates", "ring_rates",
                     "producer_consumer_rates", "star_rates"),
                    "repro.processes.communication"),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
