"""Structure-cached assembly of the recovery-line generator.

Sweeps that vary only the *rates* (``μ_i``, ``λ_ij``) rebuild exactly the same
transition *structure* every cell: which ``(row, col)`` pairs of the
``(2^n + 1)²`` generator are populated depends only on ``n`` and on which
interaction rates are non-zero, never on the rate values themselves.  This
module factors :func:`repro.markov.generator.build_generator_sparse` into

* a **structural phase** — :class:`GeneratorStructure`: the
  :class:`~repro.markov.state_space.AsyncStateSpace`, the intermediate-mask
  enumeration, and the concatenated COO row/col index arrays, each index range
  tagged with the rule parameter (``μ_i`` or ``λ_ij``) that fills it — memoized
  per ``(n, interaction zero-pattern)`` in a small process-local LRU; and
* a **data-refill phase** — :meth:`GeneratorStructure.refill_sparse` /
  :meth:`GeneratorStructure.fill_dense`: rewrite the value array from a new
  parameter set and re-run only the cheap final assembly.

A 1000-cell heterogeneous sweep therefore enumerates the state space and
builds the index arrays once, and every subsequent cell is a vectorised value
fill.

Bit-identity contract
---------------------
Both refill paths reproduce the legacy builders *exactly*:

* :meth:`refill_sparse` keeps the COO entry order of
  :func:`~repro.markov.generator.build_generator_sparse` (the cached row/col
  arrays are recorded from the same rule loops) and the same
  ``coo_matrix(...).tocsr()`` duplicate-summing conversion, so the CSR
  ``data``/``indices``/``indptr`` are bit-for-bit those of the uncached
  builder.
* :meth:`fill_dense` sums the entries of each ``(row, col)`` cell in entry
  order (a ``bincount``), the loop builder's left-to-right accumulation:
  distinct rules never collide on a cell (they change the popcount by +1,
  −1 and −2 respectively), and the only duplicates — the per-partner R3
  contributions — are recorded in ascending-partner order, the order the
  dense builder's ``sum(pair_rate(i, j) for j in zeros)`` adds them in.
  The diagonal is the builder's verbatim ``-H.sum(axis=1)``, taken on a
  full ``(2^n + 1)²`` scratch ``H`` the structure keeps: numpy sums each
  row pairwise, so only the same full row gives the same bits.  The
  transient block ``T`` then goes into one Fortran-ordered buffer that the
  dense operator factors in place, and its C-ordered copy is rebuilt from
  the same cell values only when a reader asks for the matrix (pinned by
  tests/markov/test_structure_cache.py and test_dense_block.py).

The memo key covers the full upper-triangle zero-pattern of the pair rates, so
a sweep cell that *zeroes* (or un-zeroes) an interaction misses the cache and
gets a fresh structure; ``μ`` values never affect the key (both legacy
builders emit R1/R4 entries unconditionally, even for ``μ_i = 0``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.core.parameters import SystemParameters
from repro.markov.ctmc import check_sub_generator
from repro.markov.operators import DenseTransientBlock
from repro.markov.state_space import AsyncStateSpace

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GeneratorStructure",
    "cache_info",
    "clear_structure_cache",
    "structure_for",
]

#: Structures retained per process.  A structure is O(n² · 2^n) integers —
#: a handful of MB at n=14 — and sweeps touch very few distinct patterns,
#: so a small LRU is plenty.
STRUCTURE_CACHE_SIZE = 16

#: Value-block tags: the rate that fills the block's index range.
_MU = 0          # params.mu[i]
_PAIR = 1        # params.pair_rate(i, j)
_ENTRY_TOTAL = 2  # params.total_rp_rate (the R4 entry → absorbing rate)


@dataclass(frozen=True)
class _Block:
    """One contiguous COO index range filled by a single rate value."""

    start: int
    stop: int
    tag: int
    i: int = -1
    j: int = -1


class GeneratorStructure:
    """Rates-independent structure of the generator ``H`` for one zero-pattern.

    The index arrays are immutable after construction and safe to share
    across refills; only :meth:`fill_dense`'s scratch ``H`` mutates, under
    a lock, and nothing it returns refers to it.  Structures are
    process-local (the cache is never shared across workers).  Obtain
    instances through
    :func:`structure_for` (memoized) rather than constructing directly.
    """

    def __init__(self, n: int, pattern: Tuple[Tuple[int, int], ...]) -> None:
        self.space = AsyncStateSpace(n)
        self.n = n
        #: Pairs ``(i, j)``, ``i < j``, with a non-zero interaction rate.
        self.pattern = pattern
        space = self.space
        full, m = space.full_mask, space.n_states
        masks = space.intermediate_masks()
        positive = set(pattern)

        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        blocks: List[_Block] = []
        cursor = 0

        def add(src: np.ndarray, dest: np.ndarray, tag: int,
                i: int = -1, j: int = -1) -> None:
            nonlocal cursor
            rows.append(src)
            cols.append(dest)
            blocks.append(_Block(cursor, cursor + src.size, tag, i, j))
            cursor += src.size

        # The loops below mirror build_generator_sparse entry for entry; the
        # entry *order* is part of the bit-identity contract (see module
        # docstring) and must not be changed independently of it.
        # R1: a 0-bit process establishes a recovery point.
        for i in range(n):
            bit = 1 << i
            sel = masks[(masks & bit) == 0]
            add(sel + 1, space.indices_of_masks(sel | bit), _MU, i)

        for i in range(n):
            bi = 1 << i
            for j in range(i + 1, n):
                if (i, j) not in positive:
                    continue
                bj = 1 << j
                # R2: both bits set — clear both.
                sel = masks[((masks & bi) != 0) & ((masks & bj) != 0)]
                add(sel + 1, (sel & ~bi & ~bj) + 1, _PAIR, i, j)
                # R3: exactly one of the pair's bits set — clear it.
                sel = masks[((masks & bi) != 0) & ((masks & bj) == 0)]
                add(sel + 1, (sel & ~bi) + 1, _PAIR, i, j)
                sel = masks[((masks & bj) != 0) & ((masks & bi) == 0)]
                add(sel + 1, (sel & ~bj) + 1, _PAIR, i, j)

        # Entry state S_r: R4 plus pair interactions from the all-ones pattern.
        entry = np.array([space.entry_index])
        add(entry, np.array([space.absorbing_index]), _ENTRY_TOTAL)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in positive:
                    continue
                dest_mask = full & ~(1 << i) & ~(1 << j)
                add(entry, np.array([dest_mask + 1]), _PAIR, i, j)

        self.row = np.concatenate(rows)
        self.col = np.concatenate(cols)
        self.blocks: Tuple[_Block, ...] = tuple(blocks)
        self.nnz = int(self.row.size)
        self.m = m
        diag = np.arange(m)
        #: Off-diagonal entries followed by one diagonal entry per state —
        #: the exact COO layout build_generator_sparse hands to coo_matrix.
        self.row_with_diag = np.concatenate([self.row, diag])
        self.col_with_diag = np.concatenate([self.col, diag])
        # The distinct (row, col) cells of H, flattened row-major, and the
        # cell each COO entry adds into (duplicates: the per-partner R3
        # entries).
        self._cells, self._cell_of_entry = np.unique(
            self.row * m + self.col, return_inverse=True)
        # Cells of the transient block T = H[:k, :k]: its row, and its flat
        # index in C (row-major) and Fortran (column-major) order.
        k = space.n_transient
        cell_row, cell_col = np.divmod(self._cells, m)
        self._transient = cell_col < k
        self._t_row = cell_row[self._transient]
        t_col = cell_col[self._transient]
        self._t_flat_c = self._t_row * k + t_col
        self._t_flat_f = t_col * k + self._t_row
        # Scratch H for fill_dense's row sums, allocated on first use.
        self._dense_scratch: np.ndarray | None = None
        self._scratch_lock = threading.Lock()

    # ------------------------------------------------------------------ refill
    def fill_values(self, params: SystemParameters) -> np.ndarray:
        """The COO value array for *params* (off-diagonal entries only)."""
        if params.n != self.n:
            raise ValueError(f"structure is for n={self.n}, got n={params.n}")
        val = np.empty(self.nnz)
        for block in self.blocks:
            if block.tag == _MU:
                rate = float(params.mu[block.i])
            elif block.tag == _PAIR:
                rate = params.pair_rate(block.i, block.j)
            else:
                rate = params.total_rp_rate
            val[block.start:block.stop] = rate
        return val

    def refill_sparse(self, params: SystemParameters) -> sparse.csr_matrix:
        """``H`` in CSR form — bit-identical to ``build_generator_sparse``."""
        from scipy import sparse

        val = self.fill_values(params)
        # Diagonal = negative off-diagonal row sums; the absorbing row has no
        # entries, so its diagonal is 0 and the row stays identically zero.
        diag = -np.bincount(self.row, weights=val, minlength=self.m)
        full_val = np.concatenate([val, diag])
        return sparse.coo_matrix(
            (full_val, (self.row_with_diag, self.col_with_diag)),
            shape=(self.m, self.m)).tocsr()

    def fill_dense(self, params: SystemParameters) -> DenseTransientBlock:
        """The transient block ``T`` of ``H`` — bit-identical to the block of
        the loop-built ``build_generator`` — as a validated
        :class:`~repro.markov.operators.DenseTransientBlock`.

        The block's one ``k × k`` array is a Fortran-ordered buffer the dense
        operator factors in place; the C-ordered ``T`` is rebuilt from the
        same cell values only if a reader asks for it.  The structure's
        scratch ``H`` is used, and free again, before this returns.
        """
        # Duplicate entries summed in entry order from 0.0: the loop
        # builder's left-to-right ``sum`` over a state's R3 partners.
        cell_val = np.bincount(self._cell_of_entry,
                               weights=self.fill_values(params))
        k = self.space.n_transient
        with self._scratch_lock:        # threads share cached structures
            H = self._dense_scratch
            if H is None:
                H = self._dense_scratch = np.zeros((self.m, self.m))
            # Every fill writes the same cells, so the rest stays zero.
            H.reshape(-1)[self._cells] = cell_val
            # The diagonal is build_generator's verbatim ``-H.sum(axis=1)``
            # on the same row contents: numpy sums each 2^n + 1 wide row
            # pairwise, and only a full row reproduces that order.
            diagonal = -H.sum(axis=1)[:k]
        values = cell_val[self._transient]
        check_sub_generator(
            bool(values.size) and values.min() < -1e-9, diagonal,
            np.bincount(self._t_row, weights=values, minlength=k) + diagonal)
        buffer = self._transient_matrix(self._t_flat_f, values, diagonal).T
        return DenseTransientBlock(
            k, lambda: self._transient_matrix(self._t_flat_c, values,
                                              diagonal), buffer)

    def _transient_matrix(self, flat_index: np.ndarray, values: np.ndarray,
                          diagonal: np.ndarray) -> np.ndarray:
        k = self.space.n_transient
        T = np.zeros(k * k)
        T[flat_index] = values
        T = T.reshape(k, k)
        np.fill_diagonal(T, diagonal)
        return T


# ----------------------------------------------------------------------- memo
_CACHE: "OrderedDict[Tuple[int, Tuple[Tuple[int, int], ...]], GeneratorStructure]" \
    = OrderedDict()
_STATS = {"hits": 0, "misses": 0}


def _pattern_of(params: SystemParameters) -> Tuple[Tuple[int, int], ...]:
    """Upper-triangle zero-pattern of the pair rates, as the positive pairs."""
    n = params.n
    return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                 if params.pair_rate(i, j) > 0.0)


def structure_for(params: SystemParameters) -> GeneratorStructure:
    """The (memoized) generator structure for *params*' size and zero-pattern."""
    key = (params.n, _pattern_of(params))
    structure = _CACHE.get(key)
    if structure is not None:
        _STATS["hits"] += 1
        _CACHE.move_to_end(key)
        return structure
    _STATS["misses"] += 1
    structure = GeneratorStructure(params.n, key[1])
    _CACHE[key] = structure
    while len(_CACHE) > STRUCTURE_CACHE_SIZE:
        _CACHE.popitem(last=False)
    return structure


def cache_info() -> Dict[str, int]:
    """Process-local cache counters: ``hits``, ``misses``, ``size``."""
    return {"hits": _STATS["hits"], "misses": _STATS["misses"],
            "size": len(_CACHE)}


def clear_structure_cache() -> None:
    """Drop every cached structure and reset the counters (tests, benches)."""
    _CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = 0
