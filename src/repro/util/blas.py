"""The dense LU bound from scipy's own OpenBLAS, and OpenBLAS pinned to one thread.

A dense analytic cell is one ``getrf`` and a few ``getrs`` calls.  Importing
this module binds those two LAPACK routines (the ones
``scipy.linalg.lu_factor``/``lu_solve`` wrap) straight from the OpenBLAS the
scipy wheel bundles (``scipy.libs/`` on Linux, ``scipy/.dylibs/`` on macOS),
through ctypes and without importing scipy.  It is the same file
``import scipy.linalg`` maps, so the factors are the same bits, for a few
milliseconds instead of scipy's import.  Where the wheel's library or its
``scipy_``-prefixed symbols are absent (a distro or conda scipy),
:func:`lu_factor` and :func:`lu_solve` call scipy's own functions instead.

A multi-threaded OpenBLAS splits a dense LU (and the other level-3 kernels)
across threads, which reorders floating-point reductions: results then drift
by an ulp or two between machines with different core counts, and the
bit-identity contract (hex snapshots, "same store key means same bits") would
hold only where the snapshots were taken.  The engines parallelise across
cells with a process pool instead, so one BLAS thread per process costs no
throughput.  The library bound here is set to one thread before its first
``getrf``; :func:`pin_blas_threads` sets every other OpenBLAS in the process
(numpy's) to one thread too.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
import warnings
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["lu_factor", "lu_solve", "numerics", "pin_blas_threads"]

#: Thread setters of scipy's OpenBLAS, numpy's 64-bit-integer OpenBLAS, and a
#: plain system OpenBLAS; the first one a library exports is called.
_SETTERS = ("scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads")

#: The thread count is process-wide state of the libraries, so whether this
#: process has pinned it is too.
_pinned = False


def pin_blas_threads() -> int:
    """Set every OpenBLAS mapped into this process to one thread, once.

    Returns the number of libraries pinned by this call (0 after the first).
    The scan reads ``/proc/self/maps``, so it finds what is loaded when it
    runs: numpy's OpenBLAS (numpy is imported before any dense solve) and the
    one this module bound on import, which a later ``import scipy.linalg``
    maps again as the same file rather than a second copy.
    """
    global _pinned
    if _pinned:
        return 0
    _pinned = True
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                # address perms offset device inode [path]
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(
                        fields[5].rstrip("\n")).lower():
                    paths.add(fields[5].rstrip("\n"))
    except OSError:
        return 0
    pinned = 0
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                pinned += 1
                break
    return pinned


def _scipy_openblas() -> Optional[str]:
    """The OpenBLAS file the scipy wheel bundles, found without importing
    scipy; None when scipy is absent or not a wheel."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    package = list(spec.submodule_search_locations)[0]
    directory = os.path.join(package, ".dylibs") if sys.platform == "darwin" \
        else os.path.join(os.path.dirname(package), "scipy.libs")
    try:
        names = sorted(name for name in os.listdir(directory)
                       if name.startswith("libscipy_openblas"))
    except OSError:
        return None
    return os.path.join(directory, names[0]) if names else None


class _Binding(NamedTuple):
    factor: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    solve: Callable[[Tuple[np.ndarray, np.ndarray], np.ndarray], np.ndarray]
    numerics: Callable[[], Dict[str, object]]


def _bind() -> _Binding:
    """``getrf``/``getrs`` of the wheel's OpenBLAS, else scipy.linalg's."""
    path = _scipy_openblas()
    try:
        # No path leaves None, whose missing symbols take the fallback too.
        library = ctypes.CDLL(path) if path else None
        getrf, getrs = library.scipy_dgetrf_, library.scipy_dgetrs_
        set_threads = library.scipy_openblas_set_num_threads
    except (AttributeError, OSError):
        from scipy import linalg
        pin_blas_threads()
        return _Binding(
            lambda a: linalg.lu_factor(a, overwrite_a=True,
                                       check_finite=False),
            lambda lu_and_piv, b: linalg.lu_solve(lu_and_piv, b,
                                                  check_finite=False),
            lambda: {"binding": "scipy.linalg", "library": None,
                     "threads": None, "config": None})
    config, threads = (library.scipy_openblas_get_config,
                       library.scipy_openblas_get_num_threads)
    int_p, ptr = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    set_threads.argtypes = [ctypes.c_int]
    getrf.argtypes = [int_p, int_p, ptr, int_p, ptr, int_p]
    # The trailing length is gfortran's hidden CHARACTER argument.
    getrs.argtypes = [ctypes.c_char_p, int_p, int_p, ptr, int_p, ptr, ptr,
                      int_p, int_p, ctypes.c_size_t]
    config.argtypes = threads.argtypes = []
    set_threads.restype = getrf.restype = getrs.restype = None
    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
    set_threads(1)

    def factor(a):
        n, info = ctypes.c_int(a.shape[0]), ctypes.c_int()
        piv = np.empty(a.shape[0], dtype=np.int32)
        if a.shape[0]:
            getrf(n, n, a.ctypes.data, n, piv.ctypes.data, info)
        if info.value < 0:
            raise ValueError(f"illegal value in {-info.value}th argument of "
                             "internal getrf (lu_factor)")
        if info.value > 0:
            from scipy.linalg import LinAlgWarning
            warnings.warn(f"Diagonal number {info.value} is exactly zero. "
                          "Singular matrix.", LinAlgWarning, stacklevel=3)
        piv -= 1                        # LAPACK's pivots are 1-based
        return a, piv

    def solve(lu_and_piv, b):
        lu, piv = lu_and_piv
        if lu.dtype != np.float64 or not lu.flags.f_contiguous \
                or lu.shape != (len(piv),) * 2 or piv.dtype != np.int32:
            raise ValueError("lu_solve takes the (lu, piv) of lu_factor")
        x = np.array(b, dtype=np.float64, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != lu.shape[0]:
            raise ValueError(f"Shapes of lu {lu.shape} and b {x.shape} "
                             "are incompatible")
        if x.size:
            n, info = ctypes.c_int(lu.shape[0]), ctypes.c_int()
            nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
            ipiv = piv + 1
            getrs(b"N", n, nrhs, lu.ctypes.data, n, ipiv.ctypes.data,
                  x.ctypes.data, n, info, 1)
            if info.value:
                raise ValueError(f"illegal value in {-info.value}th argument "
                                 "of internal gesv|posv")
        return x

    return _Binding(factor, solve, lambda: {
        "binding": "openblas-ctypes", "library": os.path.basename(path),
        "threads": threads(), "config": config().decode()})


_BOUND = _bind()


def lu_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LU-factor *a* in place: ``scipy.linalg.lu_factor(a, overwrite_a=True,
    check_finite=False)``, the same ``getrf`` on the same buffer.

    *a* must be a square, Fortran-contiguous, writable float64 array; it
    becomes the returned ``lu``.  The pivots are 0-based, as scipy's are.  A
    singular *a* warns (``LinAlgWarning``) exactly as scipy does.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1] \
            or not a.flags.f_contiguous or not a.flags.writeable:
        raise ValueError("lu_factor factors a square, Fortran-contiguous, "
                         "writable float64 array in place")
    return _BOUND.factor(a)


def lu_solve(lu_and_piv: Tuple[np.ndarray, np.ndarray],
             b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` from :func:`lu_factor`'s output (``getrs``); *b* is
    copied, never overwritten."""
    return _BOUND.solve(lu_and_piv, b)


def numerics() -> Dict[str, object]:
    """Which LAPACK the dense LU runs on: ``binding`` (``openblas-ctypes`` or
    ``scipy.linalg``), the ``library`` file name, its ``threads`` and its
    build ``config`` string (None where not known)."""
    return _BOUND.numerics()
