"""Symmetric BLAS kernels and a Cholesky factor-and-solve on the lower
triangle of row-major float64 arrays.

The kernels come from the OpenBLAS bundled in numpy's wheel, so they run in
the thread pool that numpy's own matrix products use.  Where numpy bundles
no OpenBLAS, scipy's BLAS and LAPACK wrappers act on transposed views;
scipy then shares numpy's BLAS.  Nothing is resolved until the first call:
`import qmcrff` loads no library and no scipy module.

`_scipy_blas_single_thread` holds scipy's own bundled OpenBLAS, where there
is one, at one thread while scipy's optimizers run.
"""

import threading
from contextlib import contextmanager
from functools import cache

import numpy as np

# CBLAS enum values
_ROW_MAJOR, _LOWER, _NO_TRANS, _TRANS, _NON_UNIT = 101, 122, 111, 112, 131


@cache
def bundled_openblas(package, symbol):
    """ctypes handle of the OpenBLAS bundled in ``package``'s wheel that
    exports ``symbol``, or None when the wheel bundles none."""
    import ctypes
    import glob
    import importlib
    import os

    module = importlib.import_module(package)
    site = os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))
    for libdir in (f"{package}.libs", os.path.join(package, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(site, libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, symbol):
                return lib
    return None


_pool_lock = threading.Lock()
_pool_depth = 0
_pool_saved = None


@contextmanager
def _scipy_blas_single_thread():
    """Hold scipy's bundled OpenBLAS at one thread while the body runs.

    L-BFGS-B makes a few small BLAS calls per iteration in the OpenBLAS
    bundled with scipy, and that pool's worker threads then stay busy for
    the whole solve, contending with numpy's pool on few cores.  The first
    of overlapping entries (pipeline cells on worker threads) saves the
    thread count and sets it to 1; the last exit restores it.  Where scipy
    bundles no OpenBLAS it shares numpy's BLAS, and nothing is changed.
    numpy's pool, which runs the heavy BLAS, is never touched.
    """
    global _pool_depth, _pool_saved
    lib = bundled_openblas("scipy", "scipy_openblas_set_num_threads")
    if lib is None:
        yield
        return
    with _pool_lock:
        if _pool_depth == 0:
            _pool_saved = lib.scipy_openblas_get_num_threads()
            lib.scipy_openblas_set_num_threads(1)
        _pool_depth += 1
    try:
        yield
    finally:
        with _pool_lock:
            _pool_depth -= 1
            if _pool_depth == 0:
                lib.scipy_openblas_set_num_threads(_pool_saved)


def _scipy_syrk(C, Z, beta):
    from scipy.linalg.blas import dsyrk

    # C.T is Fortran-ordered, and its upper triangle is C's lower one.
    dsyrk(1.0, Z.T, beta=beta, c=C.T, trans=1, lower=0, overwrite_c=1)


def _scipy_symv(A, x):
    from scipy.linalg.blas import dsymv

    return dsymv(1.0, A.T, x, lower=0)


def _scipy_potrf(A):
    from scipy.linalg.lapack import dpotrf

    # U'U = A.T with U in A.T's upper triangle is L L' = A with L = U' in
    # A's lower one; clean=0 leaves A's strict upper triangle alone.
    return dpotrf(A.T, lower=0, clean=0, overwrite_a=1)[1]


def _scipy_potrs(L, x):
    from scipy.linalg.blas import dtrsv

    x = dtrsv(L.T, x, lower=0, trans=1, overwrite_x=1)  # L y = b, L = U'
    return dtrsv(L.T, x, lower=0, trans=0, overwrite_x=1)  # L'x = y


def _scipy_kernels():
    return _scipy_syrk, _scipy_symv, _scipy_potrf, _scipy_potrs


@cache
def _kernels():
    """(syrk, symv, potrf, potrs) on checked arguments: the ILP64 CBLAS and
    LAPACK entry points of numpy's OpenBLAS, else scipy's wrappers."""
    lib = bundled_openblas("numpy", "scipy_cblas_dsyrk64_")
    if lib is None:
        return _scipy_kernels()
    import ctypes

    enum, i64, dbl, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    i64_ptr = ctypes.POINTER(i64)
    dsyrk, dsymv = lib.scipy_cblas_dsyrk64_, lib.scipy_cblas_dsymv64_
    dpotrf, dtrsv = lib.scipy_dpotrf_64_, lib.scipy_cblas_dtrsv64_
    dsyrk.restype = dsymv.restype = dpotrf.restype = dtrsv.restype = None
    dsyrk.argtypes = (enum, enum, enum, i64, i64, dbl, ptr, i64, dbl, ptr, i64)
    dsymv.argtypes = (enum, enum, i64, dbl, ptr, i64, ptr, i64, dbl, ptr, i64)
    dpotrf.argtypes = (ctypes.c_char_p, i64_ptr, ptr, i64_ptr, i64_ptr)
    dtrsv.argtypes = (enum, enum, enum, enum, i64, ptr, i64, ptr, i64)

    def syrk(C, Z, beta):
        n, k = Z.shape
        # A Fortran-ordered Z is its row-major transpose, read with Trans.
        trans, lda = (_NO_TRANS, k) if Z.flags.c_contiguous else (_TRANS, n)
        dsyrk(_ROW_MAJOR, _LOWER, trans, n, k, 1.0, Z.ctypes.data, max(lda, 1),
              beta, C.ctypes.data, max(n, 1))

    def symv(A, x):
        n = x.shape[0]
        y = np.empty(n)
        dsymv(_ROW_MAJOR, _LOWER, n, 1.0, A.ctypes.data, max(n, 1), x.ctypes.data, 1,
              0.0, y.ctypes.data, 1)
        return y

    def potrf(A):
        # The column-major routine on A's memory sees A', whose upper
        # triangle is A's lower one: the factor U = L' lands there, in place.
        # LAPACKE's row-major entry would transpose A into a new array.
        n, info = i64(A.shape[0]), i64(0)
        dpotrf(b"U", ctypes.byref(n), A.ctypes.data, ctypes.byref(i64(max(n.value, 1))),
               ctypes.byref(info))
        return info.value

    def potrs(L, x):
        n = x.shape[0]
        for trans in (_NO_TRANS, _TRANS):  # L y = b, then L'x = y
            dtrsv(_ROW_MAJOR, _LOWER, trans, _NON_UNIT, n, L.ctypes.data, max(n, 1),
                  x.ctypes.data, 1)
        return x

    return syrk, symv, potrf, potrs


def _check_square(name, A):
    if not isinstance(A, np.ndarray) or A.dtype != np.float64:
        raise ValueError(f"{name} must be a float64 array")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not A.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


def syrk_lower(C, Z, accumulate=False):
    """C <- Z Z' on the lower triangle of C, in place, or C <- C + Z Z' when
    ``accumulate``, so that ZZ' can be summed from column blocks of Z.

    C is an n x n C-contiguous float64 array; its lower triangle's old
    entries are read only when accumulating, and its strict upper triangle
    is neither read nor written.  Z is read in place when it is C- or
    Fortran-contiguous float64, and copied otherwise.
    """
    _check_square("C", C)
    Z = np.asarray(Z, dtype=np.float64)
    if not Z.flags.f_contiguous:
        Z = np.ascontiguousarray(Z)
    if Z.ndim != 2 or Z.shape[0] != C.shape[0]:
        raise ValueError(f"Z of shape {Z.shape} does not match C of shape {C.shape}")
    _kernels()[0](C, Z, 1.0 if accumulate else 0.0)


def symv_lower(A, x):
    """A x for the symmetric matrix whose lower triangle A holds.

    A is an n x n C-contiguous float64 array; its strict upper triangle is
    not read.
    """
    _check_square("A", A)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (A.shape[0],):
        raise ValueError(f"x of shape {x.shape} does not match A of shape {A.shape}")
    return _kernels()[1](A, x)


def potrf_lower(A):
    """Cholesky factor L, with L L' = A, of the symmetric matrix whose lower
    triangle A holds, written over that triangle in place (LAPACK dpotrf).

    A is an n x n C-contiguous float64 array; its strict upper triangle is
    neither read nor written.  A matrix that is not positive definite raises
    `numpy.linalg.LinAlgError`, with A's lower triangle partly overwritten.
    """
    _check_square("A", A)
    info = _kernels()[2](A)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"the leading minor of order {info} is not positive definite")


def potrs_lower(L, b):
    """x solving L L' x = b for the Cholesky factor L in the lower triangle
    of L, as `potrf_lower` leaves it: two triangular solves (BLAS dtrsv).

    L is an n x n C-contiguous float64 array; its strict upper triangle is
    not read.  b is not written.
    """
    _check_square("L", L)
    x = np.array(b, dtype=np.float64)
    if x.shape != (L.shape[0],):
        raise ValueError(f"b of shape {x.shape} does not match L of shape {L.shape}")
    return _kernels()[3](L, x)
