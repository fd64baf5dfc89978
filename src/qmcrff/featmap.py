"""Fourier feature maps, exact and approximate Gram matrices, and the
relative-error metrics used to compare them."""

from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, FrequencySet

DEFAULT_GRAM_CAP = 20000


@dataclass
class WeightedFeatureMap:
    """Frequency set plus nonnegative per-feature weights (uniform 1/s by default).

    Uniform weights sum to 1; optimized weights need not.
    """

    freqs: FrequencySet
    weights: np.ndarray = None

    def __post_init__(self):
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


def feature_vector(fmap, x):
    """Complex feature vector with component l equal to sqrt(xi_l) e^{-i x.w_l}."""
    phases = np.asarray(x, dtype=float) @ fmap.freqs.points.T
    return np.sqrt(fmap.weights) * np.exp(-1j * phases)


def real_feature_vector(fmap, x):
    """cos/sin realization: (sqrt(xi_l) cos(x.w_l), sqrt(xi_l) sin(x.w_l)).

    Its Euclidean inner product reproduces Re approx_kernel exactly.  It is
    row 0 of `real_feature_matrix` on the one-row input.
    """
    return real_feature_matrix(fmap, np.asarray(x, dtype=float)[None])[0]


def feature_matrix(fmap, X):
    """Row i is feature_vector(fmap, X[i])."""
    phases = np.asarray(X, dtype=float) @ fmap.freqs.points.T
    return np.sqrt(fmap.weights)[None, :] * np.exp(-1j * phases)


def real_feature_matrix(fmap, X):
    """Row i is real_feature_vector(fmap, X[i]); shape (n, 2s).

    cos and sin of the phase theta = x.w_l come from the half-angle tangent
    t = tan(theta / 2): cos theta = (1 - t^2) / (1 + t^2) and sin theta =
    2t / (1 + t^2), with sqrt(xi_l) folded into the one division.  numpy
    evaluates tan with SIMD but sin and cos one element at a time, so this
    takes less than half the time of calling them.  For any finite phase,
    each entry is within 2 eps sqrt(xi_l) of the double sqrt(xi_l) times
    the exact cos or sin of the rounded phase.  No double lies within 4e-19
    of an odd multiple of pi/2, so |t| < 3e18 and t^2 cannot overflow.
    """
    # Halving the frequencies is exact, so the product is the halved phase.
    t = np.asarray(X, dtype=float) @ (0.5 * fmap.freqs.points.T)
    np.tan(t, out=t)
    s = fmap.s
    Z = np.empty((t.shape[0], 2 * s))
    cos, sin = Z[:, :s], Z[:, s:]
    np.multiply(t, t, out=sin)
    sin += 1.0
    np.divide(np.sqrt(fmap.weights), sin, out=sin)
    np.multiply(t, t, out=cos)
    np.subtract(1.0, cos, out=cos)
    cos *= sin
    t += t
    sin *= t
    return Z


def approx_kernel(fmap, x, z):
    """Feature-map kernel estimate sum_l xi_l e^{-i (x-z).w_l} (Hermitian in x, z)."""
    delta = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    phases = fmap.freqs.points @ delta
    return complex(np.sum(fmap.weights * np.exp(-1j * phases)))


def gram_exact(density, X, max_n=DEFAULT_GRAM_CAP):
    """Exact kernel Gram matrix of the rows of X (PSD, unit diagonal).

    It is exactly symmetric: the Gaussian distances come from a symmetric
    rank-k update ``Xs @ Xs.T`` plus a symmetric outer sum, the Laplacian
    ones from |a - b| = |b - a|.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 1:
        raise ValueError("gram_exact requires at least one row")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the Gram cap {max_n}")
    Xs = X / density.scale[None, :]
    if density.kind == GAUSSIAN:
        sq = np.sum(Xs * Xs, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-0.5 * d2)
    acc = np.zeros((n, n))
    for j in range(X.shape[1]):
        acc += np.abs(Xs[:, j][:, None] - Xs[:, j][None, :])
    return np.exp(-acc)


def gram_approx(fmap, X, max_n=DEFAULT_GRAM_CAP):
    """Real part of the feature-map Gram estimate, Z Z' with Z the real
    feature matrix.

    numpy computes ``Z @ Z.T`` as one symmetric rank-k update and mirrors
    its triangle, so the result is exactly symmetric.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 1:
        raise ValueError("gram_approx requires at least one row")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the Gram cap {max_n}")
    Z = real_feature_matrix(fmap, X)
    return Z @ Z.T


def spectral_norm(A):
    """Largest singular value of a symmetric matrix, by ARPACK's Lanczos.

    The largest-magnitude eigenvalue comes from ``scipy.sparse.linalg.eigsh``
    run to machine precision from a fixed PCG64(0) start vector, so repeated
    calls are bitwise identical.
    """
    from scipy.sparse.linalg import eigsh

    A = np.asarray(A, dtype=float)
    if A.shape[0] < 2 or not A.any():
        # ARPACK fails on a zero matrix and falls back to a dense solver, with
        # a warning, on a 1x1 one.
        return float(np.abs(A).max(initial=0.0))
    v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(A.shape[0])
    eig = eigsh(A, k=1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    return float(abs(eig[0]))


def gram_norms(K):
    """(spectral, frobenius) norms of K, to pass to repeated `relative_errors` calls."""
    K = np.asarray(K, dtype=float)
    return spectral_norm(K), float(np.linalg.norm(K))


def relative_errors(K, K_approx, norms=None):
    """(spectral, frobenius) relative errors of K_approx against K.

    ``norms`` is ``gram_norms(K)`` when the caller already has it.
    """
    K = np.asarray(K, dtype=float)
    K_approx = np.asarray(K_approx, dtype=float)
    if K.shape != K_approx.shape:
        raise ValueError(f"shape mismatch: {K.shape} vs {K_approx.shape}")
    E = K - K_approx
    denom_2, denom_f = gram_norms(K) if norms is None else norms
    rel_f = float(np.linalg.norm(E) / denom_f) if denom_f > 0 else 0.0
    rel_2 = float(spectral_norm(E) / denom_2) if denom_2 > 0 else 0.0
    return rel_2, rel_f


@dataclass
class GramErrorReport:
    """Per-(sequence, s) Gram approximation errors aggregated over trials."""

    label: str
    s: int
    trials: int
    spectral_mean: float
    spectral_std: float
    frobenius_mean: float
    frobenius_std: float

    def to_json_dict(self):
        return {
            "label": self.label,
            "s": self.s,
            "trials": self.trials,
            "relative_spectral": {"mean": self.spectral_mean, "std": self.spectral_std},
            "relative_frobenius": {"mean": self.frobenius_mean, "std": self.frobenius_std},
        }


def summarize_gram_errors(label, s, pairs):
    """Aggregate (spectral, frobenius) pairs from repeated trials."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (spectral, frobenius) tuples")
    std = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.zeros(2)
    mean = arr.mean(axis=0)
    return GramErrorReport(label=label, s=s, trials=arr.shape[0],
                           spectral_mean=float(mean[0]), spectral_std=float(std[0]),
                           frobenius_mean=float(mean[1]), frobenius_std=float(std[1]))
