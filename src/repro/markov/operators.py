"""Pluggable numeric backends for the transient sub-generator ``T``.

The analytic stack evaluates three kinds of expressions against ``T``:

* **propagation** — the row vectors ``α·exp(T t)`` behind the density/CDF of
  the phase-type interval ``X``;
* **resolvent solves** — ``T x = b`` (moments ``E[X^k]``) and ``Tᵀ x = b``
  (occupancy times, absorption splits);
* **matrix–vector products** — exit vectors, ODE cross-checks.

:class:`TransientOperator` is the abstract seam; two interchangeable backends
implement it:

:class:`DenseTransientOperator`
    The ground truth for small chains: cached LU factorisations for the
    solves (LAPACK ``getrf``/``getrs`` bound by :mod:`repro.util.blas`, no
    scipy import) and ``scipy.linalg.expm`` with a cached uniform-grid step
    matrix for propagation.

:class:`SparseTransientOperator`
    CSR storage with Krylov propagation (``scipy.sparse.linalg.expm_multiply``
    — no matrix exponential is ever materialised) and sparse LU
    (``scipy.sparse.linalg.splu``) solves.  The recovery-line chain's state
    graph is hypercube-like, so exact LU fill-in grows steeply with the order;
    above :data:`SPARSE_LU_LIMIT` unknowns the solves switch to
    Jacobi-preconditioned GMRES (the sub-generator is strictly diagonally
    dominant on the exit states, which keeps the iteration well behaved), with
    an explicit residual check and an LU fallback.

Backend selection policy
------------------------
:func:`select_backend` maps an order (number of transient states) to a backend
name: at or below :data:`DENSE_STATE_LIMIT` unknowns the dense path is both
faster and exact; above it the ``(order²)`` memory and ``O(order³)`` ``expm``
cost of the dense path dominate and the sparse path wins.  Callers can force
either backend explicitly (the agreement of the two *is* a test).
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from repro.util import blas
from repro.util.linalg import issparse, solve_linear

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "BACKEND_NAMES",
    "DENSE_STATE_LIMIT",
    "SPARSE_LU_LIMIT",
    "DenseTransientOperator",
    "SparseTransientOperator",
    "TransientOperator",
    "as_operator",
    "check_backend_name",
    "select_backend",
]

#: Largest order handled by the dense backend under ``backend="auto"``.  With
#: 512 transient states the dense ``expm``/LU path is still comfortably fast
#: and serves as ground truth; beyond it (n ≥ 10 processes for the full
#: recovery-line chain) the sparse path takes over.
DENSE_STATE_LIMIT = 512

#: Largest order solved by exact sparse LU.  The recovery-line chain's
#: transition graph is a (directed) hypercube, whose treewidth — and therefore
#: LU fill-in — grows nearly exponentially with ``n``; past ~1k unknowns the
#: factorisation is slower than a preconditioned Krylov solve by orders of
#: magnitude (measured: ``splu`` needs ~0.6 s at n=11 and ~7 s at n=12, and
#: does not finish at n=14 — where Jacobi+GMRES takes < 0.1 s).
SPARSE_LU_LIMIT = 1024

#: Target relative tolerance of the iterative solves…
_KRYLOV_RTOL = 1e-12
#: …and the residual actually required for a solution to be accepted (the
#: iteration regularly stagnates between the two on stiff chains).
_KRYLOV_ACCEPT = 1e-9

#: A dense array or any ``scipy.sparse`` matrix.  scipy is imported where a
#: sparse path computes: no sparse matrix exists before it is.
MatrixLike = Union[np.ndarray, "sparse.spmatrix"]


#: Valid backend requests — the single owner of the name contract.
BACKEND_NAMES = ("auto", "dense", "sparse")


def check_backend_name(backend: str) -> str:
    """Validate a backend request, returning it unchanged."""
    if backend not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {backend!r}; "
                         f"expected one of {', '.join(BACKEND_NAMES)}")
    return backend


def select_backend(order: int, backend: str = "auto") -> str:
    """Resolve a backend request to ``"dense"`` or ``"sparse"``.

    ``backend`` may be ``"auto"`` (size-based policy above), ``"dense"`` or
    ``"sparse"``.
    """
    check_backend_name(backend)
    if backend != "auto":
        return backend
    return "dense" if order <= DENSE_STATE_LIMIT else "sparse"


def _uniform_step(flat: np.ndarray) -> Optional[float]:
    """The common positive step of a uniform time grid, or None."""
    if flat.size <= 2:
        return None
    diffs = np.diff(flat)
    if np.allclose(diffs, diffs[0], rtol=1e-10, atol=1e-14) and diffs[0] > 0:
        return float(diffs[0])
    return None


class TransientOperator:
    """Abstract linear-operator view of a transient sub-generator ``T``.

    All methods treat vectors as 1-D arrays of length :attr:`order`.
    """

    #: Backend name reported by diagnostics (``"dense"`` / ``"sparse"``).
    name = "abstract"

    @property
    def order(self) -> int:
        """Number of transient states."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialise ``T`` as a dense array (small orders only)."""
        raise NotImplementedError

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``T v``."""
        raise NotImplementedError

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``Tᵀ v`` (equivalently the row vector ``vᵀ T``)."""
        raise NotImplementedError

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b``."""
        raise NotImplementedError

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Tᵀ x = b``."""
        raise NotImplementedError

    def expm_states(self, alpha: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows ``α·exp(T t)`` for every requested time (any order, repeats ok)."""
        raise NotImplementedError

    # ------------------------------------------------------------- conveniences
    def exit_vector(self) -> np.ndarray:
        """``t⁰ = −T·1`` — the absorption rate out of each transient state."""
        return -self.matvec(np.ones(self.order))

    def occupancy(self, alpha: np.ndarray) -> np.ndarray:
        """``τ = α(−T)^{-1}`` — expected sojourn time per state before absorption."""
        return -self.solve_transpose(np.asarray(alpha, dtype=float))


class DenseTransientBlock:
    """A dense ``T`` whose matrix is built on first read.

    The structure-cached assembly hands over ``buffer``: ``T``'s values in
    Fortran order, the layout LAPACK's ``getrf`` factors in place, so the
    first dense solve consumes it with no copy.  ``materialise`` rebuilds a
    fresh, writable C-ordered ``T`` from the recipe that filled the buffer,
    so it holds the same bits before and after the buffer was factored.
    The transpose solves factor one such array in place (its memory is
    ``Tᵀ`` in Fortran order); every other reader of the matrix (``matvec``,
    ``expm``, :attr:`PhaseType.T <repro.markov.ctmc.PhaseType.T>`) shares
    the read-only :attr:`T`.  A mean/variance evaluation never asks for
    either.

    The producer validates the values (see
    :meth:`repro.markov.structure_cache.GeneratorStructure.fill_dense`).
    """

    def __init__(self, order: int, materialise: Callable[[], np.ndarray],
                 buffer: Optional[np.ndarray] = None) -> None:
        self.order = int(order)
        self.materialise = materialise
        self._buffer = buffer

    @classmethod
    def of_matrix(cls, T: np.ndarray) -> "DenseTransientBlock":
        """A block over a caller's square matrix, read as it is."""
        block = cls(T.shape[0], lambda: np.array(T, order="C"))
        block.T = T                     # fills the cached property
        return block

    def take_buffer(self) -> Optional[np.ndarray]:
        """The Fortran-ordered buffer, handed out once for in-place use."""
        buffer, self._buffer = self._buffer, None
        return buffer

    @cached_property
    def T(self) -> np.ndarray:
        """The read-only C-ordered ``T``, built on first access."""
        T = self.materialise()
        T.setflags(write=False)
        return T


class DenseTransientOperator(TransientOperator):
    """Dense backend (ground truth for small chains).

    ``T`` is a matrix or a :class:`DenseTransientBlock`.  The solves run
    LAPACK's ``getrf``/``getrs`` through :mod:`repro.util.blas`: the first
    :meth:`solve` factors the block's buffer in place (a matrix gets a
    Fortran-ordered copy, the copy ``scipy.linalg.lu_factor`` would make),
    the first :meth:`solve_transpose` a freshly materialised C-ordered
    ``T``.  Only :meth:`expm_states` imports ``scipy.linalg``.
    """

    name = "dense"

    def __init__(self, T: Union[np.ndarray, DenseTransientBlock]) -> None:
        if not isinstance(T, DenseTransientBlock):
            T = np.asarray(T, dtype=float)
            if T.ndim != 2 or T.shape[0] != T.shape[1]:
                raise ValueError("T must be square")
            T = DenseTransientBlock.of_matrix(T)
        # One BLAS thread: a threaded LU reorders its reductions, and every
        # dense result must be the same bits on any machine.
        blas.pin_blas_threads()
        self._block = T
        self._lu: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._lu_t: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def _T(self) -> np.ndarray:
        return self._block.T

    @property
    def order(self) -> int:
        return self._block.order

    def to_dense(self) -> np.ndarray:
        return np.array(self._T, copy=True)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._T @ v

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._T.T @ v

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._lu is None:
            buffer = self._block.take_buffer()
            if buffer is None:
                buffer = np.array(self._T, order="F")
            # No finiteness scan: generators are finite by construction
            # (sums of finite rates), and _finite_or_fallback still catches
            # a degenerate factorisation.  The buffer is ours to overwrite.
            self._lu = blas.lu_factor(buffer)
        return self._finite_or_fallback(
            blas.lu_solve(self._lu, b), b, transpose=False)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        if self._lu_t is None:
            # A fresh C-ordered T is Tᵀ in Fortran order: the very input
            # lu_factor(T.T) copies T into, factored here without the copy.
            self._lu_t = blas.lu_factor(self._block.materialise().T)
        return self._finite_or_fallback(
            blas.lu_solve(self._lu_t, b), b, transpose=True)

    def _finite_or_fallback(self, x: np.ndarray, b: np.ndarray, *,
                            transpose: bool) -> np.ndarray:
        """Route singular systems through solve_linear's diagnosable fallback.

        ``getrs`` on a singular factorisation returns inf/nan with only
        LAPACK's terse zero-diagonal warning; a singular transient block means
        a malformed generator, which solve_linear reports with condition
        context before least-squares-solving.  Only then is ``T`` needed.
        """
        if np.all(np.isfinite(x)):
            return x
        return solve_linear(self._T.T if transpose else self._T, b)

    def expm_states(self, alpha: np.ndarray, times: np.ndarray) -> np.ndarray:
        from scipy import linalg as sla

        flat = np.atleast_1d(np.asarray(times, dtype=float))
        alpha = np.asarray(alpha, dtype=float)
        out = np.empty((flat.size, self.order))
        step = _uniform_step(flat)
        if step is not None:
            # One cached step matrix propagates the whole grid.
            step_matrix = sla.expm(self._T * step)
            vec = alpha @ sla.expm(self._T * flat[0])
            out[0] = vec
            for k in range(1, flat.size):
                vec = vec @ step_matrix
                out[k] = vec
        else:
            for k, t in enumerate(flat):
                out[k] = alpha @ sla.expm(self._T * t)
        return out


class SparseTransientOperator(TransientOperator):
    """CSR-backed backend: Krylov propagation + sparse LU / GMRES solves."""

    name = "sparse"

    def __init__(self, T: MatrixLike, *, lu_limit: int = SPARSE_LU_LIMIT) -> None:
        from scipy import sparse
        T = sparse.csr_matrix(T)
        if T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        self._T = T
        self._Tt = T.T.tocsr()
        self._lu_limit = int(lu_limit)
        self._lu = None
        self._lu_t = None
        self._diag: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return int(self._T.shape[0])

    @property
    def matrix(self) -> sparse.csr_matrix:
        """The CSR sub-generator itself (shared, do not mutate)."""
        return self._T

    def to_dense(self) -> np.ndarray:
        return self._T.toarray()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._T @ v

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._Tt @ v

    # ------------------------------------------------------------------ solves
    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.sparse import linalg as spla

        if self.order <= self._lu_limit:
            if self._lu is None:
                try:
                    self._lu = spla.splu(self._T.tocsc())
                except RuntimeError:
                    # Exactly singular: a malformed generator — route through
                    # solve_linear's diagnosable (warning) fallback.
                    return solve_linear(self._T, np.asarray(b, dtype=float))
            return self._lu.solve(np.asarray(b, dtype=float))
        return self._krylov_solve(self._T, b)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        from scipy.sparse import linalg as spla

        if self.order <= self._lu_limit:
            if self._lu_t is None:
                try:
                    self._lu_t = spla.splu(self._Tt.tocsc())
                except RuntimeError:
                    return solve_linear(self._Tt, np.asarray(b, dtype=float))
            return self._lu_t.solve(np.asarray(b, dtype=float))
        return self._krylov_solve(self._Tt, b)

    def _krylov_solve(self, A: sparse.csr_matrix,
                      b: np.ndarray) -> np.ndarray:
        """Jacobi-preconditioned GMRES with residual check and LU fallback.

        The hypercube-shaped state graph makes exact LU fill-in explode at
        large orders, while the strictly negative, dominant diagonal makes a
        Jacobi-preconditioned Krylov iteration converge in a handful of steps.
        """
        from scipy.sparse import linalg as spla

        b = np.asarray(b, dtype=float)
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros_like(b)
        if self._diag is None:
            self._diag = self._T.diagonal()
        diag = self._diag
        M = spla.LinearOperator(A.shape, lambda v: v / diag)
        # The iteration often stagnates a decade short of _KRYLOV_RTOL on stiff
        # chains (large E[X]); what matters is the true residual, so accept on
        # that rather than on the solver's convergence flag.
        x, _info = spla.gmres(A, b, M=M, rtol=_KRYLOV_RTOL, atol=0.0,
                              restart=200, maxiter=20)
        residual = float(np.linalg.norm(A @ x - b)) / b_norm
        if residual <= _KRYLOV_ACCEPT:
            return x
        x, _info = spla.bicgstab(A, b, x0=x, M=M, rtol=_KRYLOV_RTOL, atol=0.0,
                                 maxiter=2000)
        residual = float(np.linalg.norm(A @ x - b)) / b_norm
        if residual <= _KRYLOV_ACCEPT:
            return x
        warnings.warn(
            f"iterative solvers stalled at relative residual {residual:.2e} on "
            f"a {A.shape[0]}-state system; falling back to exact sparse LU "
            "(slow at this size)", RuntimeWarning, stacklevel=3)
        lu = spla.splu(A.tocsc())
        return lu.solve(b)

    # ------------------------------------------------------------- propagation
    def expm_states(self, alpha: np.ndarray, times: np.ndarray) -> np.ndarray:
        from scipy.sparse import linalg as spla

        flat = np.atleast_1d(np.asarray(times, dtype=float))
        alpha = np.asarray(alpha, dtype=float)
        out = np.empty((flat.size, self.order))
        step = _uniform_step(flat)
        if step is not None:
            # expm_multiply evaluates exp(t·Tᵀ)·α on the whole uniform grid with
            # one Krylov/Taylor pass (no matrix exponential is formed).
            states = spla.expm_multiply(
                self._Tt, alpha, start=float(flat[0]), stop=float(flat[-1]),
                num=flat.size, endpoint=True)
            out[:] = np.atleast_2d(states)
            return out
        # Arbitrary grids: propagate stepwise through the sorted unique times.
        order = np.argsort(flat, kind="stable")
        vec = alpha.copy()
        current = 0.0
        for k in order:
            dt = float(flat[k]) - current
            if dt > 0.0:
                vec = spla.expm_multiply(self._Tt * dt, vec)
                current = float(flat[k])
            out[k] = vec
        return out


def as_operator(T: Union[MatrixLike, DenseTransientBlock],
                backend: str = "auto") -> TransientOperator:
    """Wrap a sub-generator in the matching :class:`TransientOperator`.

    With ``backend="auto"`` the storage format decides: an already-sparse
    matrix stays sparse, a dense array or block follows
    :func:`select_backend`'s size policy.  Forcing ``"dense"`` or
    ``"sparse"`` converts as needed.
    """
    if isinstance(T, TransientOperator):
        return T
    check_backend_name(backend)
    if isinstance(T, DenseTransientBlock):
        if select_backend(T.order, backend) == "dense":
            return DenseTransientOperator(T)
        T = T.T
    if issparse(T):
        if backend == "dense":
            return DenseTransientOperator(T.toarray())
        return SparseTransientOperator(T)
    T = np.asarray(T, dtype=float)
    if backend == "sparse" or (backend == "auto"
                               and T.shape[0] > DENSE_STATE_LIMIT):
        return SparseTransientOperator(T)
    return DenseTransientOperator(T)
