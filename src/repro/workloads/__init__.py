"""Workload generators for the recovery-block runtimes and experiments.

A workload fixes everything about the concurrent computation except the recovery
scheme: how many processes, how much useful work each must complete, how often they
checkpoint and interact (the Section 2.1 rates), how faults arrive, and how costly
state saving is.  The same :class:`~repro.workloads.spec.WorkloadSpec` can then be
run under the asynchronous, synchronized and PRP runtimes for a like-for-like
comparison.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use so
#: that building a workload loads no trace replayer.
_EXPORTS = {
    **dict.fromkeys(("FaultModel", "WorkloadSpec"), "repro.workloads.spec"),
    **dict.fromkeys(("paper_table1_case", "paper_figure6_case",
                     "homogeneous_workload", "pipeline_workload",
                     "realtime_control_workload"),
                    "repro.workloads.generators"),
    **dict.fromkeys(("TraceEvent", "TraceWorkload", "history_from_trace"),
                    "repro.workloads.trace"),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
