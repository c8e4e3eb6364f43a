"""Assembly of the CTMC transition-rate matrix (rules R1–R4 of Section 2.2).

Given :class:`~repro.core.parameters.SystemParameters`, :func:`build_generator`
produces the full ``(2^n + 1) × (2^n + 1)`` generator matrix ``H`` (the paper's
notation) whose ``(u, v)`` entry is the transition rate from state ``u`` to state
``v``.  :func:`build_phase_type` extracts the transient sub-generator and packages
the absorption-time distribution — the interval ``X`` between successive recovery
lines — as a :class:`~repro.markov.ctmc.PhaseType` object.

Transition rules (paper numbering, processes 1-based there / 0-based here):

R1  A process with ``x_i = 0`` establishes a recovery point: ``x_i`` becomes 1, at
    rate ``μ_i``.  If that makes every bit 1, the next recovery line has formed and
    the transition targets the absorbing state.
R2  Two processes with ``x_i = x_j = 1`` interact: both bits drop to 0, at rate
    ``λ_ij``.
R3  A process with ``x_i = 1`` interacts with some process with ``x_j = 0``: bit
    ``i`` drops to 0 (bit ``j`` is already 0), at total rate ``Σ_{j∈B_i} λ_ij``.
R4  From the entry state ``S_r`` (all bits conceptually 1), any recovery point
    immediately yields the next recovery line: direct transition to ``S_{r+1}`` at
    rate ``Σ_k μ_k``.

Events that change no bits (an RP by a process whose bit is already 1, or an
interaction between two 0-bit processes) are not transitions of the chain; they are
accounted for by the uniformised chain ``Y_d`` when counting recovery points
(:mod:`repro.markov.split_chain`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.parameters import SystemParameters
from repro.markov.ctmc import PhaseType
from repro.markov.operators import select_backend
from repro.markov.state_space import AsyncStateSpace
from repro.markov.structure_cache import structure_for

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["build_generator", "build_generator_sparse", "build_phase_type"]


def build_generator(params: SystemParameters) -> Tuple[np.ndarray, AsyncStateSpace]:
    """Build the full generator matrix ``H`` and its state space.

    Returns
    -------
    (H, space):
        ``H`` is a dense ``(2^n + 1)²`` array; ``space`` the index arithmetic
        helper.  Row sums are zero; the absorbing row is identically zero.
    """
    space = AsyncStateSpace(params.n)
    m = space.n_states
    H = np.zeros((m, m), dtype=float)
    n = params.n
    full = space.full_mask

    # --- entry state S_r -----------------------------------------------------
    entry = space.entry_index
    # R4: any recovery point completes a new line immediately.
    H[entry, space.absorbing_index] += params.total_rp_rate
    # R2: an interaction between any pair clears both bits.
    for i in range(n):
        for j in range(i + 1, n):
            rate = params.pair_rate(i, j)
            if rate <= 0.0:
                continue
            dest_mask = space.clear_bit(space.clear_bit(full, i), j)
            H[entry, space.index_of_mask(dest_mask)] += rate

    # --- intermediate states --------------------------------------------------
    for index in space.intermediate_indices():
        mask = space.mask_of_index(index)
        ones = space.ones(mask)
        zeros = space.zeros(mask)
        # R1: a 0-bit process establishes a recovery point.
        for i in zeros:
            dest_mask = space.set_bit(mask, i)
            dest = (space.absorbing_index if dest_mask == full
                    else space.index_of_mask(dest_mask))
            H[index, dest] += params.mu[i]
        # R2: two 1-bit processes interact.
        for a_pos in range(len(ones)):
            for b_pos in range(a_pos + 1, len(ones)):
                i, j = ones[a_pos], ones[b_pos]
                rate = params.pair_rate(i, j)
                if rate <= 0.0:
                    continue
                dest_mask = space.clear_bit(space.clear_bit(mask, i), j)
                H[index, space.index_of_mask(dest_mask)] += rate
        # R3: a 1-bit process interacts with a 0-bit process.
        for i in ones:
            rate = sum(params.pair_rate(i, j) for j in zeros)
            if rate <= 0.0:
                continue
            dest_mask = space.clear_bit(mask, i)
            H[index, space.index_of_mask(dest_mask)] += rate

    # --- diagonal --------------------------------------------------------------
    np.fill_diagonal(H, 0.0)
    H[np.arange(m), np.arange(m)] = -H.sum(axis=1)
    # Absorbing state: no departures.
    H[space.absorbing_index, :] = 0.0
    return H, space


def build_generator_sparse(params: SystemParameters
                           ) -> Tuple[sparse.csr_matrix, AsyncStateSpace]:
    """Build ``H`` directly in CSR form, without the dense ``(2^n+1)²`` array.

    The chain has only ``O(n² · 2^n)`` nonzeros (each state has at most ``n``
    R1 departures plus one per interacting pair), so the CSR form stays
    assembleable and usable far past the dense path's n≈10 memory wall.
    Assembly is fully vectorised: one numpy selection over all intermediate
    masks per (rule, process/pair) combination; duplicate ``(row, col)``
    entries — e.g. the per-pair R3 contributions the dense builder aggregates —
    are summed by the COO→CSR conversion.

    Agreement with the dense :func:`build_generator` (the small-``n`` ground
    truth) is pinned by tests.
    """
    space = AsyncStateSpace(params.n)
    n, full, m = params.n, space.full_mask, space.n_states
    masks = space.intermediate_masks()
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []

    def add(src: np.ndarray, dest: np.ndarray, rate: float) -> None:
        rows.append(src)
        cols.append(dest)
        vals.append(np.full(src.size, rate))

    # R1: a 0-bit process establishes a recovery point.
    for i in range(n):
        bit = 1 << i
        sel = masks[(masks & bit) == 0]
        add(sel + 1, space.indices_of_masks(sel | bit), float(params.mu[i]))

    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            rate = params.pair_rate(i, j)
            if rate <= 0.0:
                continue
            bj = 1 << j
            # R2: both bits set — clear both.
            sel = masks[((masks & bi) != 0) & ((masks & bj) != 0)]
            add(sel + 1, (sel & ~bi & ~bj) + 1, rate)
            # R3: exactly one of the pair's bits set — clear it.
            sel = masks[((masks & bi) != 0) & ((masks & bj) == 0)]
            add(sel + 1, (sel & ~bi) + 1, rate)
            sel = masks[((masks & bj) != 0) & ((masks & bi) == 0)]
            add(sel + 1, (sel & ~bj) + 1, rate)

    # Entry state S_r: R4 plus pair interactions from the all-ones pattern.
    entry = np.array([space.entry_index])
    add(entry, np.array([space.absorbing_index]), params.total_rp_rate)
    for i in range(n):
        for j in range(i + 1, n):
            rate = params.pair_rate(i, j)
            if rate <= 0.0:
                continue
            dest_mask = full & ~(1 << i) & ~(1 << j)
            add(entry, np.array([dest_mask + 1]), rate)

    row = np.concatenate(rows)
    col = np.concatenate(cols)
    val = np.concatenate(vals)
    # Diagonal = negative off-diagonal row sums; the absorbing row has no
    # entries, so its diagonal is 0 and the row stays identically zero.
    diag = -np.bincount(row, weights=val, minlength=m)
    row = np.concatenate([row, np.arange(m)])
    col = np.concatenate([col, np.arange(m)])
    val = np.concatenate([val, diag])
    from scipy import sparse
    H = sparse.coo_matrix((val, (row, col)), shape=(m, m)).tocsr()
    return H, space


def build_phase_type(params: SystemParameters, *,
                     backend: str = "auto",
                     structure_cache: bool = True) -> PhaseType:
    """Phase-type representation of the inter-recovery-line interval ``X``.

    The chain starts in the entry state ``S_r`` with probability 1; the transient
    sub-generator is the restriction of ``H`` to the ``2^n`` transient states.

    ``backend`` selects the numeric representation of ``T``: ``"dense"`` (the
    small-``n`` ground truth), ``"sparse"`` (CSR + Krylov/sparse-LU evaluation,
    the only feasible path for large ``n``), or ``"auto"`` (size policy of
    :func:`repro.markov.operators.select_backend`).

    ``structure_cache`` (default on) assembles ``H`` through the memoized
    :mod:`~repro.markov.structure_cache`: the state space and COO index arrays
    are built once per ``(n, interaction zero-pattern)`` and every further
    call — e.g. the cells of a rates-only sweep — only rewrites the value
    array.  Both cached fills are bit-identical to the legacy builders (the
    loop-built :func:`build_generator` and :func:`build_generator_sparse`),
    so the flag only trades assembly time, never results.  A cached dense
    ``T`` arrives as a :class:`~repro.markov.operators.DenseTransientBlock`
    (see :meth:`~repro.markov.structure_cache.GeneratorStructure.fill_dense`).
    """
    space = AsyncStateSpace(params.n)
    chosen = select_backend(space.n_transient, backend)
    if structure_cache:
        structure = structure_for(params)
        if chosen == "sparse":
            H_sparse = structure.refill_sparse(params)
            k = space.n_transient
            T = H_sparse[:k, :k].tocsr()
        else:
            # One k × k buffer: the structure fills and checks it, the dense
            # operator factors it in place, and the C-ordered T is built
            # only for the readers that need the matrix itself.
            T = structure.fill_dense(params)
    elif chosen == "sparse":
        H_sparse, space = build_generator_sparse(params)
        k = space.n_transient
        T = H_sparse[:k, :k].tocsr()
    else:
        H, space = build_generator(params)
        transient = list(space.transient_indices())
        T = H[np.ix_(transient, transient)]
    alpha = np.zeros(space.n_transient)
    alpha[space.entry_index] = 1.0
    return PhaseType(alpha=alpha, T=T)
