"""Independent reference implementations the tests check the package
against.  None of them shares code with what it checks, except
`real_feature_vector`, which is one row of `real_feature_matrix`."""

import math

import numpy as np
import pytest

from qmcrff.densities import GAUSSIAN
from qmcrff.featmap import real_feature_matrix


def sinc_kernel(box, u, v):
    """Reproducing kernel of the band-limited box: pi^-d prod_j sin(b_j du_j)/du_j."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (box.d,) or v.shape != (box.d,):
        raise ValueError(f"u and v must have shape ({box.d},)")
    return float(np.prod(box.b / np.pi * np.sinc(box.b * (u - v) / np.pi)))


def sinc_reference(b, t):
    """(b/pi) sinc(b t) and (b^2/pi) sinc'(b t) from 30-digit mpmath; the
    slope is -j1, the spherical Bessel function, which does not cancel
    near zero as cos(z)/z - sin(z)/z^2 does."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        b, t = mpmath.mpf(float(b)), mpmath.mpf(float(t))
        z = b * t
        factor = mpmath.sin(z) / (mpmath.pi * t)
        j1 = mpmath.sqrt(mpmath.pi / (2 * abs(z))) * mpmath.besselj(1.5, abs(z))
        return float(factor), float(-b * b / mpmath.pi * mpmath.sign(z) * j1)


def exact_kernel(density, x, z):
    """Kernel value whose inverse Fourier transform is the density.

    Equals prod_j characteristic_profile(density, j, x_j - z_j): the
    Gaussian kernel for the gaussian density and the Laplacian kernel for
    the cauchy density.
    """
    delta = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    if delta.shape != (density.d,):
        raise ValueError(f"x - z must have shape ({density.d},), got {delta.shape}")
    if density.kind == GAUSSIAN:
        return float(np.exp(-np.sum((delta / density.scale) ** 2) / 2.0))
    return float(np.exp(-np.sum(np.abs(delta) / density.scale)))


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


def approx_kernel(fmap, x, z):
    """Feature-map kernel estimate sum_l xi_l e^{-i (x-z).w_l} (Hermitian in x, z)."""
    delta = np.asarray(x, dtype=float) - np.asarray(z, dtype=float)
    phases = fmap.freqs.points @ delta
    return complex(np.sum(fmap.weights * np.exp(-1j * phases)))


def gram_exact_reference(density, X):
    """The exact Gram matrix by the direct expressions: exp(-d2/2) with
    d2 = max(sq_i + sq_j - 2 <x_i, x_j>, 0) on the scaled rows for the
    Gaussian kernel, sq taken from the same product's diagonal so that
    d2 = 0 at i = j, and exp(-sum_j |x_ij - x_kj| / sigma_j) summed one
    dimension at a time for the Laplacian one."""
    Xs = np.asarray(X, dtype=float) / density.scale[None, :]
    if density.kind == GAUSSIAN:
        G = Xs @ Xs.T
        sq = np.diagonal(G)
        d2 = sq[:, None] + sq[None, :] - 2.0 * G
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-0.5 * d2)
    acc = np.zeros((Xs.shape[0], Xs.shape[0]))
    for j in range(Xs.shape[1]):
        acc += np.abs(Xs[:, j][:, None] - Xs[:, j][None, :])
    return np.exp(-acc)


# `box_discrepancy_quadrature` refuses to derive more nodes: leggauss(2000)
# takes 0.6 s, and a clamped Cauchy frequency (|w| ~ 1e15/sigma) asks for more.
_MAX_QUADRATURE_NODES = 2000


def box_discrepancy_quadrature(freqs, density, box, nodes=None):
    """Squared box discrepancy via per-dimension Gauss-Legendre quadrature.

    Evaluates the characteristic-function integrals int |phi_j|^2 and
    int phi_j cos(w beta) over [0, b_j] (both integrands are even) with
    ``nodes`` Gauss-Legendre points per dimension (by default max(200, 64 +
    ceil(max_lj |w_lj| b_j)), well above the oscillations of cos(w beta),
    refused beyond _MAX_QUADRATURE_NODES); phi_j is exp(-beta^2/(2 sigma_j^2))
    for the gaussian density and exp(-|beta|/sigma_j) for the cauchy one.
    The pairwise term sums plain sines (`np.sinc`).  Restricted to d <= 3.
    With s = 0 only the squared kernel-mean norm remains.
    """
    W = freqs.points
    s, d = W.shape
    if not (d == density.d == box.d):
        raise ValueError(
            f"dimension mismatch: frequencies d={d}, density d={density.d}, box d={box.d}")
    if d > 3:
        raise ValueError(f"box_discrepancy_quadrature supports d <= 3, got d={d}")
    if nodes is None:
        nodes = max(200, 64 + math.ceil(float(np.max(np.abs(W) * box.b, initial=0.0))))
        if nodes > _MAX_QUADRATURE_NODES:
            raise ValueError(f"box_discrepancy_quadrature would need {nodes} nodes, "
                             f"beyond {_MAX_QUADRATURE_NODES}; pass nodes= to force it")
    if nodes < 32:
        raise ValueError(f"box_discrepancy_quadrature requires nodes >= 32, got {nodes}")
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)

    term1 = 1.0
    cross = np.ones(s)
    for j in range(d):
        beta = 0.5 * box.b[j] * (gl_x + 1.0)
        wq = 0.5 * box.b[j] * gl_w
        sigma = density.scale[j]
        if density.kind == GAUSSIAN:
            phi = np.exp(-(beta * beta) / (2.0 * sigma * sigma))
        else:
            phi = np.exp(-np.abs(beta) / sigma)
        i1 = 2.0 * float(np.sum(wq * phi * phi))
        term1 *= i1 / (2.0 * math.pi)
        if s:
            i2 = 2.0 * (np.cos(np.outer(W[:, j], beta)) @ (wq * phi))
            cross *= i2 / (2.0 * math.pi)
    if s == 0:
        return term1
    term2 = -2.0 / s * float(cross.sum())
    lag = W[:, None, :] - W[None, :, :]
    term3 = float(np.prod(box.b / np.pi * np.sinc(box.b * lag / np.pi), axis=2).sum()) / (s * s)
    return term1 + term2 + term3


def cross_slope_reference(kind, sigma, b, x):
    """g'(x) = -(1/pi) int_0^b beta phi(beta) sin(x beta) dbeta, the slope of
    the discrepancy's cross factor, by 50-digit mpmath quadrature; phi is
    e^{-beta^2/(2 sigma^2)} for the gaussian density, e^{-beta/sigma} for the
    cauchy one."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        sigma, b, x = mpmath.mpf(float(sigma)), mpmath.mpf(float(b)), mpmath.mpf(float(x))
        if kind == "gaussian":
            def phi(t):
                return mpmath.exp(-t * t / (2 * sigma * sigma))
        else:
            def phi(t):
                return mpmath.exp(-t / sigma)
        return float(-mpmath.quad(lambda t: t * phi(t) * mpmath.sin(x * t), [0, b]) / mpmath.pi)


def star_discrepancy_bruteforce(pointset):
    """Exact star discrepancy for d <= 2 by enumerating the critical grid.

    On each axis-aligned cell delimited by point coordinates the anchored
    box count is constant while the volume grows, so the supremum of
    |Vol - count/s| is attained at a cell corner; both corners of every
    cell are inspected, which covers the open/closed counting limits.
    Intended as a test utility: cost is O(s^2) in d = 2.
    """
    pts = pointset.points
    s, d = pts.shape
    if d > 2:
        raise ValueError(f"star_discrepancy_bruteforce supports d <= 2, got d={d}")
    if s > 2000:
        raise ValueError(f"star_discrepancy_bruteforce supports s <= 2000, got s={s}")
    if d == 1:
        x = np.sort(pts[:, 0])
        lo = np.concatenate(([0.0], x))           # cell lower edges
        hi = np.concatenate((x, [1.0]))           # cell upper edges
        counts = np.arange(s + 1) / s             # points <= lower edge
        return float(np.max(np.maximum(np.abs(hi - counts), np.abs(lo - counts))))

    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    lo_x = np.concatenate(([0.0], xs))
    hi_x = np.concatenate((xs, [1.0]))
    lo_y = np.concatenate(([0.0], ys))
    hi_y = np.concatenate((ys, [1.0]))
    # counts[i, j] = #{points with x <= lo_x[i] and y <= lo_y[j]}
    ix = np.searchsorted(xs, pts[:, 0])
    iy = np.searchsorted(ys, pts[:, 1])
    hist = np.zeros((len(xs) + 1, len(ys) + 1))
    np.add.at(hist, (ix + 1, iy + 1), 1.0)
    counts = hist.cumsum(axis=0).cumsum(axis=1) / s
    vol_hi = np.outer(hi_x, hi_y)
    vol_lo = np.outer(lo_x, lo_y)
    dev = np.maximum(np.abs(vol_hi - counts), np.abs(vol_lo - counts))
    return float(dev.max())
