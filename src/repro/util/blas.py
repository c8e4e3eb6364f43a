"""Pin the loaded OpenBLAS libraries to one thread.

A multi-threaded OpenBLAS splits a dense LU (and the other level-3 kernels)
across threads, which reorders floating-point reductions: results then drift
by an ulp or two between machines with different core counts, and the
bit-identity contract (hex snapshots, "same store key means same bits") would
hold only where the snapshots were taken.  The engines parallelise across
cells with a process pool instead, so one BLAS thread per process costs no
throughput.

This is threadpoolctl's technique without the dependency: find the OpenBLAS
builds mapped into this process in ``/proc/self/maps`` (the scipy and numpy
wheels each bundle one) and call their thread setters through ctypes.  Where
no such library is loaded (or ``/proc`` is absent) nothing happens.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["pin_blas_threads"]

#: Thread setters of scipy's OpenBLAS, numpy's 64-bit-integer OpenBLAS, and a
#: plain system OpenBLAS; the first one a library exports is called.
_SETTERS = ("scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads")

#: The thread count is process-wide state of the libraries, so whether this
#: process has pinned it is too.
_pinned = False


def pin_blas_threads() -> int:
    """Set every loaded OpenBLAS to one thread, once per process.

    Returns the number of libraries pinned by this call (0 after the first).
    Call it where dense linear algebra starts, after numpy and scipy.linalg
    are imported, so both libraries are mapped.
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
