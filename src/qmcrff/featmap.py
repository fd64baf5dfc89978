"""Fourier feature maps, exact and approximate Gram matrices, and the
relative-error metrics used to compare them."""

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._blas import symv_lower, syrk_lower
from .densities import GAUSSIAN, FrequencySet

_GRAM_CAP = 20000  # rows gram_exact and gram_approx accept
_ROW_BLOCK = 64  # rows per block of K's build and of ExactGram.errors


@dataclass
class WeightedFeatureMap:
    """Frequency set plus nonnegative per-feature weights (uniform 1/s by default).

    Uniform weights sum to 1; optimized weights need not.
    """

    freqs: FrequencySet
    weights: np.ndarray = None

    def __post_init__(self):
        if self.freqs.s < 1:
            raise ValueError(f"a feature map requires s >= 1, got {self.freqs.s}")
        if self.weights is None:
            self.weights = np.full(self.freqs.s, 1.0 / self.freqs.s)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.freqs.s,):
            raise ValueError(f"weights must have shape ({self.freqs.s},)")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and nonnegative")

    @property
    def s(self):
        return self.freqs.s

    @property
    def d(self):
        return self.freqs.d


def real_feature_matrix(fmap, X, out=None):
    """Row i is the cos/sin realization (sqrt(xi_l) cos(x_i.w_l),
    sqrt(xi_l) sin(x_i.w_l)) of the feature map at X[i]; shape (n, 2s).

    cos and sin of the phase theta = x.w_l come from the half-angle tangent
    t = tan(theta / 2).  With r = sqrt(xi_l) / (1 + t^2), sqrt(xi_l) cos theta
    = 2r - sqrt(xi_l) and sqrt(xi_l) sin theta = 2t r.  numpy evaluates tan
    with SIMD but sin and cos one element at a time, so this takes less than
    half the time of calling them.  For any finite phase, each entry is
    within 2 eps sqrt(xi_l) of the double sqrt(xi_l) times the exact cos or
    sin of the rounded phase.  No double lies within 4e-19 of an odd
    multiple of pi/2, so |t| < 3e18 and t^2 cannot overflow.

    Z is Fortran-ordered: its cos and sin halves are each one contiguous
    block, so every step below runs on contiguous memory and t is formed in
    the sine half, which leaves Z the only array of its size.  When ``out``
    is given, a flat float64 buffer of at least 2ns entries, Z is a view of
    its leading part and nothing of size n is allocated.
    """
    X = np.asarray(X, dtype=float)
    n, s = X.shape[0], fmap.s
    Zt = np.empty((2 * s, n)) if out is None else out[:2 * n * s].reshape(2 * s, n)
    cos, sin = Zt[:s], Zt[s:]
    # Halving the frequencies is exact, so the product is the halved phase.
    np.matmul(0.5 * fmap.freqs.points, X.T, out=sin)
    np.tan(sin, out=sin)
    np.multiply(sin, sin, out=cos)
    cos += 1.0
    root_xi = np.sqrt(fmap.weights)[:, None]
    np.divide(root_xi, cos, out=cos)
    sin *= cos
    sin += sin
    cos += cos
    cos -= root_xi
    return Zt.T


@contextmanager
def _row_buffers():
    """Hold numpy's ufunc buffer at `_ROW_BLOCK` // 4 elements.

    numpy 2.4 copies strided 2-D operands, such as a block's rows of K,
    through its ufunc buffers, which slows the block loops of `_exact_upper`
    and `ExactGram.errors` 1.3-3.5 times; a buffer shorter than most rows
    lets the loops run on the rows in place.
    """
    saved = np.setbufsize(_ROW_BLOCK // 4)
    try:
        yield
    finally:
        np.setbufsize(saved)


def _exact_upper(density, X, K):
    """Write the upper triangle and the diagonal of the exact kernel Gram
    matrix of the rows of X into K, an n x n C-contiguous float64 array,
    and return ||K||_F^2.  K's strict lower triangle is neither read nor
    written.

    The triangle is built in place, one block of `_ROW_BLOCK` rows at a
    time: the rectangle right of the block's diagonal square in place, and
    the square whole in a small buffer (the Gaussian's from the upper
    triangle of G and its transpose), of which the upper triangle is copied
    in.  The Gaussian exponent G_ij - (h_i + h_j), with G = Xs Xs' from
    ``syrk_lower(K.T, Xs)`` (the dsyrk call numpy makes for ``Xs @ Xs.T``
    before mirroring its upper triangle) and h = G_ii / 2 read from the
    product itself, is bitwise -d2/2 for the squared distance d2 = G_ii +
    G_jj - 2 G_ij, since halving is exact, and exactly 0 at i = j.  The
    Laplacian exponent subtracts |Xs_ij - Xs_kj| from zero one dimension at
    a time, which is bitwise the negated sum, since rounding is symmetric
    under negation, and exactly 0 at i = j.  So the diagonal is exactly 1,
    and ||K||_F^2 is twice the rectangles' sums of squares plus the
    squares', which are exactly symmetric.
    """
    n = X.shape[0]
    Xs = X / density.scale[None, :]
    gaussian = density.kind == GAUSSIAN
    if gaussian:
        syrk_lower(K.T, Xs)
        h = 0.5 * np.diagonal(K)
    size = min(n, _ROW_BLOCK)
    T, U = np.empty(size * n), np.empty((size, size))
    upper = ~np.tri(size, k=-1, dtype=bool)  # with the diagonal
    sum_sq = 0.0
    with _row_buffers():
        for r0 in range(0, n, _ROW_BLOCK):
            r1 = min(n, r0 + _ROW_BLOCK)
            rows = slice(r0, r1)
            rect, square = K[rows, r1:], K[rows, rows]
            u, tri = U[:r1 - r0, :r1 - r0], upper[:r1 - r0, :r1 - r0]
            if gaussian:
                np.copyto(u, square.T)
                np.copyto(u, square, where=tri)
            for A, cols in ((u, rows), (rect, slice(r1, n))):
                t = T[:A.size].reshape(A.shape)
                if gaussian:
                    A -= np.add.outer(h[rows], h[cols], out=t)
                    np.minimum(A, 0.0, out=A)
                else:
                    A[...] = 0.0
                    for c in Xs.T:
                        A -= np.abs(np.subtract.outer(c[rows], c[cols], out=t), out=t)
                np.exp(A, out=A)
            np.copyto(square, u, where=tri)
            sum_sq += 2.0 * np.einsum("ij,ij->", rect, rect) + np.einsum("ij,ij->", u, u)
    return sum_sq


def _gram_rows(X, name):
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 1:
        raise ValueError(f"{name} requires at least one row")
    if X.shape[0] > _GRAM_CAP:
        raise ValueError(f"n={X.shape[0]} exceeds the Gram cap {_GRAM_CAP}")
    return X


def gram_exact(density, X):
    """Exact kernel Gram matrix of the rows of X (PSD, unit diagonal).

    `_exact_upper` builds the upper triangle and the diagonal in place, and
    the upper triangle is then mirrored into the strict lower one, one block
    of `_ROW_BLOCK` columns at a time, so K is exactly symmetric, bitwise
    the direct expressions' matrix, and the only temporary is one block.
    """
    X = _gram_rows(X, "gram_exact")
    n = X.shape[0]
    K = np.empty((n, n))
    _exact_upper(density, X, K)
    lower = np.tri(min(n, _ROW_BLOCK), k=-1, dtype=bool)
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(n, r0 + _ROW_BLOCK)
        K[r1:, r0:r1] = K[r0:r1, r1:].T
        square = K[r0:r1, r0:r1]
        np.copyto(square, square.T, where=lower[:r1 - r0, :r1 - r0])
    return K


def gram_approx(fmap, X):
    """Real part of the feature-map Gram estimate, Z Z' with Z the real
    feature matrix.

    numpy computes ``Z @ Z.T`` as one symmetric rank-k update and mirrors
    its triangle, so the result is exactly symmetric.
    """
    Z = real_feature_matrix(fmap, _gram_rows(X, "gram_approx"))
    return Z @ Z.T


def _check_square(A):
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")


def spectral_norm(A):
    """Largest singular value of the symmetric matrix whose lower triangle
    A holds; the strict upper triangle is not read.

    The largest-magnitude eigenvalue comes from ``scipy.sparse.linalg.eigsh``
    run to machine precision from a fixed PCG64(0) start vector, so repeated
    calls are bitwise identical.  Each Lanczos matvec is one BLAS ``dsymv``
    on the lower triangle (see `qmcrff._blas`), which reads half the matrix.
    A C- or Fortran-ordered float64 A is read in place; the lower triangle
    of a Fortran-ordered A is the upper triangle of its row-major
    transpose, so ``spectral_norm(K.T)`` reads K's upper triangle.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    A = np.asarray(A, dtype=float)
    if not (A.flags.c_contiguous or A.flags.f_contiguous):
        A = np.ascontiguousarray(A)
    _check_square(A)
    n = A.shape[0]
    if n < 2:
        # ARPACK falls back to a dense solver, with a warning, on a 1x1 matrix.
        return float(np.abs(A).max(initial=0.0))
    op = LinearOperator((n, n), matvec=lambda v: symv_lower(A, v), dtype=np.float64)
    v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(n)
    try:
        eig = eigsh(op, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackError:
        # A zero matrix maps v0 to zero, and ARPACK stops with error -9
        # ("starting vector is zero"); scanning for it only here keeps the
        # scan off every other call.
        if not np.tril(A).any():
            return 0.0
        raise
    return float(abs(eig[0]))


def relative_errors(K, K_approx):
    """(spectral, frobenius) relative errors of K_approx against K.

    Neither input changes.  The spectral error reads the lower triangle of
    K - K_approx only.
    """
    K = np.asarray(K, dtype=float)
    K_approx = np.asarray(K_approx, dtype=float)
    _check_square(K)
    if K.shape != K_approx.shape:
        raise ValueError(f"shape mismatch: {K.shape} vs {K_approx.shape}")
    E = K - K_approx
    denom_2, denom_f = spectral_norm(K), float(np.linalg.norm(K))
    rel_f = float(np.linalg.norm(E) / denom_f) if denom_f > 0 else 0.0
    rel_2 = float(spectral_norm(E) / denom_2) if denom_2 > 0 else 0.0
    return rel_2, rel_f


class ExactGram:
    """The exact Gram matrix K of the rows of X, as `gram_exact` returns it,
    and the relative errors of feature maps against it.

    K is exactly symmetric, so its upper triangle holds all of it: only that
    triangle and the diagonal are built (`_exact_upper`), and nothing writes
    the strict upper half after construction, so any number of workers read
    K at once.  The array's strict lower triangle is never written here; it
    and the diagonal are one worker's Gram buffer (`gram_buffer`).  K's
    diagonal is exactly 1.  ``norms`` is (spectral, frobenius) of the full
    K, both from the upper triangle: the spectral norm reads it through
    ``spectral_norm(K.T)``, and ||K||_F^2 is summed as the triangle is
    built.  They agree with the norms of `gram_exact`'s mirrored K to an
    ulp or two.
    """

    def __init__(self, density, X):
        X = _gram_rows(X, "ExactGram")
        K = np.empty((X.shape[0], X.shape[0]))
        frobenius_sq = _exact_upper(density, X, K)
        self.norms = spectral_norm(K.T), math.sqrt(frobenius_sq)
        self._tri = np.tri(min(K.shape[0], _ROW_BLOCK), dtype=bool)
        # Where row i's diagonal entry falls in a block's flat lower triangle.
        self._diag_at = np.cumsum(np.arange(1, len(self._tri) + 1)) - 1
        self._store = K
        self._store_free = True
        self._lock = threading.Lock()

    def gram_buffer(self):
        """An n x n Gram buffer for one worker: on the first call the array
        that holds K, whose lower triangle and diagonal are free (the strict
        lower triangle was never written, so it holds arbitrary values), and
        on every later call a new zeroed array."""
        with self._lock:
            shared, self._store_free = self._store_free, False
        return self._store if shared else np.zeros_like(self._store)

    def errors(self, G):
        """``relative_errors(K, Z @ Z.T)`` for the map whose Gram matrix ZZ'
        has its lower triangle in G, an n x n C-contiguous float64 array,
        such as ``syrk_lower(G, Z)`` leaves in a `gram_buffer`.

        G's lower triangle is overwritten with E = K - ZZ', one block of
        `_ROW_BLOCK` rows at a time, K read transposed from its upper half
        (0.15-1.2 ms more per map at n = 800-1500 than untransposed reads,
        2-vCPU VM) and its unit diagonal written in.  G's strict upper
        triangle is neither read nor written, so G may be the array that
        holds K.  The norms are nonzero since K has a unit diagonal.  ||E||_F^2 is twice
        the lower triangle's sum of squares less the diagonal's.
        """
        K = self._store
        if G.shape != K.shape:
            raise ValueError(f"G of shape {G.shape} does not match K of shape {K.shape}")
        n = K.shape[0]
        sum_sq = 0.0
        with _row_buffers():
            for r0 in range(0, n, _ROW_BLOCK):
                r1 = min(n, r0 + _ROW_BLOCK)
                E = G[r0:r1, :r0]
                np.subtract(K[:r0, r0:r1].T, E, out=E)
                sum_sq += np.einsum("ij,ij->", E, E)
                S, lower = G[r0:r1, r0:r1], self._tri[:r1 - r0, :r1 - r0]
                e = K[r0:r1, r0:r1].T[lower]
                e[self._diag_at[:r1 - r0]] = 1.0
                e -= S[lower]
                S[lower] = e
                sum_sq += e @ e
        diag = np.diagonal(G)
        denom_2, denom_f = self.norms
        return spectral_norm(G) / denom_2, math.sqrt(2.0 * sum_sq - diag @ diag) / denom_f
