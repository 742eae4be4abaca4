"""One-thread pin for the OpenBLAS that numpy multiplies with.

The campaign runner and the dumbbell estimator multiply many small or thin
matrices, where a second BLAS thread only busy-waits and competes with the
caller's own threads for the cores.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

import numpy as np

# (prefix, suffix) of OpenBLAS's thread-count functions: numpy 2.x's
# 64-bit-integer build, numpy 1.x's, scipy-openblas's 32-bit-integer build,
# then a plain OpenBLAS
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("openblas", "64_"), ("scipy_openblas", ""), ("openblas", ""))


@cache
def openblas_libraries() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS numpy multiplies with.

    Looked up through numpy's own linear-algebra extension, whose handle
    resolves the symbols of the BLAS it links; empty for any other BLAS
    or where the lookup cannot reach them.  Looked up once per process:
    each lookup builds a ctypes library object whose function-pointer
    classes live until the cyclic garbage collector runs, and a pin per
    dumbbell estimate left enough of them among the large arrays to raise
    peak memory by about 4 MiB.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return ()
    for prefix, suffix in _OPENBLAS_NAMES:
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return ((get, put),)
    return ()


@contextmanager
def one_blas_thread():
    """numpy's OpenBLAS runs one thread inside; the old count comes back after."""
    libraries = openblas_libraries()
    old = [get() for get, _ in libraries]
    for _, put in libraries:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libraries, old):
            put(count)
