"""Process entry for the ``climfact`` console script, and the BLAS thread
count of every CLI run.

This module imports nothing that loads numpy: numpy reads its BLAS
thread count once, when it is first imported, so a process that runs
the CLI has to set that count before ``climfact.cli`` is imported.
"""

import os
import sys

# the variables a user sets to choose a BLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


def one_blas_thread():
    """Run this process's BLAS on one thread unless its environment
    already chose a count.

    Every matrix the CLI factors is small (T of a few hundred, at most
    about a hundred columns), so a second thread roughly doubles the CPU
    time of each gemm and QR for little or no wall time, and it makes the
    float outputs depend on the machine's core count.

    Before numpy is imported this sets OMP_NUM_THREADS, which the bundled
    OpenBLAS honours as it does OPENBLAS_NUM_THREADS, so no BLAS worker
    thread is ever started. After, as when a program imports
    ``climfact.cli`` and calls ``main``, it sets the count in the
    OpenBLAS numpy loaded and leaves the environment alone; a BLAS
    without that setter keeps its count."""
    if any(os.environ.get(name) for name in BLAS_THREAD_VARIABLES):
        return
    if "numpy" not in sys.modules:
        os.environ["OMP_NUM_THREADS"] = "1"
        return
    import ctypes

    from numpy.linalg import _umath_linalg

    # the handle of numpy's LAPACK module also finds the symbols of the
    # BLAS library it links
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for symbol in _OPENBLAS_SETTERS:
        if hasattr(lib, symbol):
            setter = getattr(lib, symbol)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def main():
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main()
