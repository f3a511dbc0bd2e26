"""One OpenBLAS thread for csop's BLAS, LAPACK and ARPACK calls, dense and banded.

Banded work is O(n) per call, where a second thread only burns a core; the idle
threads of NumPy's and SciPy's separate OpenBLAS builds spin on after a dense call
and slow the other's next one, and one thread makes results core-count independent.

`one_blas_thread`, a re-entrant context manager and decorator, sets the OpenBLAS
bundled with NumPy and the one bundled with SciPy to one thread; the outermost
exit restores their counts, exceptions included.  The count is process-wide, so
there is one instance, and other threads' BLAS calls run on one thread meanwhile.
A no-op for a library or symbol not found and when OPENBLAS_NUM_THREADS is set;
the libraries are looked up on first entry, not at import.
"""

import contextlib
import ctypes
import glob
import os
import threading

import numpy
import scipy

# package, its bundled OpenBLAS in <package>.libs, thread-count symbols ({} = get, set)
_OPENBLAS = ((numpy, "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
             (scipy, "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"))


def _libraries():
    """(get, set) thread-count functions of each bundled OpenBLAS found."""
    found = []
    for package, pattern, symbol in _OPENBLAS:
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in glob.glob(os.path.join(libs, pattern)):
            with contextlib.suppress(OSError, AttributeError):
                lib = ctypes.CDLL(path)
                get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
                get.argtypes, get.restype, set_.argtypes, set_.restype = (), ctypes.c_int, (ctypes.c_int,), None
                found.append((get, set_))
    return found


class _OneBlasThread(contextlib.ContextDecorator):
    def __init__(self):
        self._lock, self._depth, self._controls, self._saved = threading.Lock(), 0, None, []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._controls is None:
                    self._controls = [] if "OPENBLAS_NUM_THREADS" in os.environ else _libraries()
                self._saved = [get() for get, _ in self._controls]
                for _, set_ in self._controls:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), count in zip(self._controls, self._saved):
                    set_(count)


one_blas_thread = _OneBlasThread()
