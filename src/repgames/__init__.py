"""Exact simulation and verification toolkit for repeated two-player nonlocal games.

Importing the package caps numpy's OpenBLAS at one thread, for the whole
process, unless one of BLAS_THREAD_VARIABLES is set.  Every matrix the
package decomposes is at most 32 x 32, handled in stacks, and at those sizes
a second BLAS thread does no useful work but spins idle after each call.
"""

import ctypes
import os

import numpy  # maps numpy's BLAS library into the process

__version__ = "0.1.0"

# any of these, set to a non-empty value, keeps the pool size OpenBLAS chose
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")
# OpenBLAS's setter under the names its builds export (numpy's wheels
# prefix them with scipy_ and suffix the 64-bit-integer interface)
_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


def _cap_blas_threads() -> None:
    """One OpenBLAS thread, set through the library's own setter, found
    among the libraries this process has mapped; no library or no setter,
    no change."""
    if any(os.environ.get(v) for v in BLAS_THREAD_VARIABLES):
        return
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _SET_THREADS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


_cap_blas_threads()
