"""Markov models for asynchronous recovery blocks (Section 2 of the paper).

The paper models the interval ``X`` between two successive recovery lines of a set
of asynchronously checkpointing processes as the absorption time of a
continuous-time Markov chain whose states record, per process, whether the last
action was a recovery point (1) or an interaction (0).

Sub-modules
-----------
``state_space``
    Encoding of the chain's states (entry state ``S_r``, the intermediate
    ``(x_1,…,x_n)`` states, and the absorbing state ``S_{r+1}``).
``generator``
    Assembly of the transition-rate matrix according to rules R1–R4 (dense
    ground truth plus a vectorised CSR builder for large state spaces).
``structure_cache``
    Memoized structural phase of the generator assembly: COO index arrays
    keyed on ``(n, interaction zero-pattern)``, so rates-only sweeps pay the
    state-space enumeration once and refill only the value array.
``operators``
    The :class:`TransientOperator` seam: interchangeable dense
    (``expm``/LU) and sparse (``expm_multiply``/sparse-LU/GMRES) numeric
    backends, with a size-based auto-selection policy.
``simplified``
    The lumped symmetric chain of Figure 3 (rules R1'–R4').
``ctmc`` / ``dtmc``
    Generic phase-type / absorbing-chain mathematics.
``split_chain``
    The discrete chain ``Y_d`` with split states (Figure 4) used to obtain the mean
    number of recovery points ``E[L_i]`` recorded during ``X``.
``density``
    Evaluation of the density ``f_X(t)`` on a grid (Figure 6).
``montecarlo``
    Model-level Monte-Carlo sampling of ``X`` and ``L_i`` (the paper's own numbers in
    Table 1 were obtained this way).
``recovery_line_interval``
    High-level façade tying everything together.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, resolved on first use so
#: that a Monte-Carlo cell loads ``montecarlo`` alone, not the solver stack.
_EXPORTS = {
    "AsyncStateSpace": "repro.markov.state_space",
    **dict.fromkeys(("build_generator", "build_generator_sparse",
                     "build_phase_type"), "repro.markov.generator"),
    **dict.fromkeys(("DENSE_STATE_LIMIT", "DenseTransientOperator",
                     "SparseTransientOperator", "TransientOperator",
                     "as_operator", "select_backend"),
                    "repro.markov.operators"),
    **dict.fromkeys(("SimplifiedChain", "simplified_mean_interval"),
                    "repro.markov.simplified"),
    **dict.fromkeys(("PhaseType", "transient_distribution"),
                    "repro.markov.ctmc"),
    "AbsorbingDTMC": "repro.markov.dtmc",
    **dict.fromkeys(("SplitChainYd", "expected_rp_counts"),
                    "repro.markov.split_chain"),
    **dict.fromkeys(("interval_density", "interval_cdf"),
                    "repro.markov.density"),
    **dict.fromkeys(("ModelSimulator", "SimulatedIntervals"),
                    "repro.markov.montecarlo"),
    "RecoveryLineIntervalModel": "repro.markov.recovery_line_interval",
    **dict.fromkeys(("GeneratorStructure", "cache_info",
                     "clear_structure_cache", "structure_for"),
                    "repro.markov.structure_cache"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
