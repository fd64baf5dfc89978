"""Box-discrepancy machinery for frequency sequences.

The squared box discrepancy of a frequency set S = {w_1..w_s} against a
product density p over the band-limited box [-b_1,b_1] x ... x [-b_d,b_d]
is the squared RKHS distance between the kernel mean of p and the empirical
mean over S in the sinc-kernel space.  It splits into three terms:

    term1: (1/s^2) sum_{l,m} sinc_b(w_l, w_m)          (pairwise)
    term2: -(2/s)  sum_l prod_j g_j(w_lj)              (cross)
    term3: prod_j (sigma_j / (2 sqrt(pi))) erf(b_j / sigma_j)   (constant)

with, for the Gaussian density, g_j(x) = c_j exp(-sigma_j^2 x^2 / 2) *
Re erf(b_j/(sigma_j sqrt(2)) - i sigma_j x / sqrt(2)) and
c_j = sigma_j / sqrt(2 pi).  For non-Gaussian product densities the same
three terms are evaluated by per-dimension numerical quadrature of the
characteristic function; that path doubles as the independent oracle for
the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, characteristic_profile
from .specfun import re_erf_damped_grid

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Rows per block of the pairwise sweep are chosen so that one block's
# per-dimension factor arrays hold about this many entries each.
_BLOCK_ENTRIES = 1 << 14

# Below this |b * lag| the pairwise sweep evaluates the sinc factor and its
# slope by `_sinc_series` rather than by angle addition, whose absolute
# rounding error grows relative to the slope there: just above it the slope
# is off by up to ~15 eps of b^2/pi.
_NEAR_LAG = 0.25

# Taylor coefficients of sin(z)/z in z^2, (-1)^k / (2k+1)! for k <= 6, and
# those of its slope over z, 2k (-1)^k / (2k+1)! for 1 <= k <= 6.  At
# |z| <= _NEAR_LAG the first omitted term is below 2e-18 of either sum; the
# last kept one still moves the slope by 5e-15 of its value.
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(7))
_SINC_SLOPE_SERIES = tuple(2 * k * c for k, c in enumerate(_SINC_SERIES))[1:]


@dataclass
class Box:
    """Per-dimension half-widths b_j > 0 of the frequency-domain box."""

    b: np.ndarray

    def __post_init__(self):
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError("b must be a 1-D vector")
        if not np.all(np.isfinite(self.b)) or np.any(self.b <= 0.0):
            raise ValueError("all half-widths must be strictly positive and finite")

    @property
    def d(self):
        return self.b.size

    def scaled(self, factor):
        if factor <= 0.0:
            raise ValueError(f"box scale must be positive, got {factor}")
        return Box(b=self.b * factor)


@dataclass
class DiscrepancyReport:
    """Squared discrepancy with its three summands kept for diagnostics."""

    d_squared: float
    term1: float
    term2: float
    term3: float
    s: int
    d: int

    def to_json_dict(self):
        return {
            "d_squared": self.d_squared,
            "term_pairwise": self.term1,
            "term_cross": self.term2,
            "term_constant": self.term3,
            "s": self.s,
            "d": self.d,
        }


def _horner(coeffs, u):
    """sum_k coeffs[k] u^k by Horner's rule."""
    acc = coeffs[-1] * u
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= u
        acc += c
    return acc


def _sinc_series(b, t, slope=False):
    """`_sinc_factor` for |b*t| <= _NEAR_LAG by its Taylor series in z = b*t:
    the factor (b/pi) sum_k (-z^2)^k / (2k+1)! and, with ``slope``, the
    slope (b^2/pi) z sum_{k>=1} (-1)^k 2k z^(2k-2) / (2k+1)!.  It needs no
    sine, cosine or division, and the slope does not cancel."""
    z = b * t
    u = z * z
    factor = _horner(_SINC_SERIES, u)
    factor *= b / np.pi
    if not slope:
        return factor
    dfactor = _horner(_SINC_SLOPE_SERIES, u)
    dfactor *= z
    dfactor *= b * b / np.pi
    return factor, dfactor


def _sinc_factor(b, t, slope=False):
    """sin(b*t) / (pi*t) with the diagonal convention sin(b*0)/0 = b.

    `_sinc_series` takes over for |b*t| < 1e-6; this keeps the later
    gradient free of cancellation near coincident coordinates.  With
    ``slope`` the derivative in t, (b^2/pi) sinc'(b*t), comes back as well,
    from the same sine and with the series below |b*t| = 1e-3.  ``b`` may
    be a vector that broadcasts against ``t``.
    """
    t = np.asarray(t, dtype=float)
    bt = np.asarray(b * t)
    sin_bt = np.sin(bt)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.asarray(sin_bt / (np.pi * t))
        if slope:
            dfactor = np.asarray((np.cos(bt) / bt - sin_bt / (bt * bt)) * (b * b / np.pi))
    abs_bt = np.abs(bt)
    small = abs_bt < 1e-6
    if small.any():
        factor[small] = _sinc_series(np.broadcast_to(b, bt.shape)[small], t[small])
    if not slope:
        return factor
    tiny = abs_bt < 1e-3
    if tiny.any():
        dfactor[tiny] = _sinc_series(np.broadcast_to(b, bt.shape)[tiny], t[tiny], slope=True)[1]
    return factor, dfactor


def _point_sincos(b, W):
    """sin(b_j w_lj) and cos(b_j w_lj) for every point, with the rounding
    error of the product b_j * w_lj (Dekker's exact two-product) carried
    into both to first order."""
    x = b * W
    split = 134217729.0  # 2^27 + 1
    bc, wc = split * b, split * W
    b_hi = bc - (bc - b)
    w_hi = wc - (wc - W)
    b_lo, w_lo = b - b_hi, W - w_hi
    err = ((b_hi * w_hi - x) + b_hi * w_lo + b_lo * w_hi) + b_lo * w_lo
    # The split overflows for |b| or |w| beyond ~1e300; there the plain product stands.
    err[~np.isfinite(err)] = 0.0
    sin_x, cos_x = np.sin(x), np.cos(x)
    return sin_x + err * cos_x, cos_x - err * sin_x


def sinc_kernel(box, u, v):
    """Reproducing kernel of the band-limited box: pi^-d prod_j sin(b_j du_j)/du_j."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (box.d,) or v.shape != (box.d,):
        raise ValueError(f"u and v must have shape ({box.d},)")
    return float(np.prod(_sinc_factor(box.b, u - v)))


def sinc_gram(box, W, V=None):
    """Matrix of sinc-kernel values between the rows of W and V (default W)."""
    W = np.asarray(W, dtype=float)
    V = W if V is None else np.asarray(V, dtype=float)
    out = np.ones((W.shape[0], V.shape[0]))
    for j in range(box.d):
        out *= _sinc_factor(box.b[j], W[:, j][:, None] - V[:, j][None, :])
    return out


def gaussian_point_factors(density, box, W):
    """Per-point, per-dimension cross factors g_j(w_lj) for the Gaussian density."""
    sigma = density.scale
    c = sigma / _SQRT_2PI
    a = box.b / (sigma * _SQRT_2)
    return c * re_erf_damped_grid(a, sigma * W / _SQRT_2)


def gaussian_point_slopes(density, box, W, G):
    """Derivatives g_j'(w_lj) of the cross factors G = gaussian_point_factors(density, box, W):

        g_j'(x) = -sigma_j^2 x g_j(x) + sqrt(2/pi) c_j sigma_j exp(-b_j^2/(2 sigma_j^2)) sin(b_j x).
    """
    sigma, b = density.scale, box.b
    edge = _SQRT_2_OVER_PI * (sigma / _SQRT_2PI) * sigma * np.exp(-b * b / (2.0 * sigma * sigma))
    return -(sigma * sigma) * W * G + edge * np.sin(b * W)


def gaussian_mean_norm_sq(density, box):
    """Squared norm of the Gaussian kernel mean: prod_j sigma_j/(2 sqrt(pi)) erf(b_j/sigma_j)."""
    return float(np.prod(density.scale / (2.0 * _SQRT_PI)
                         * np.array([math.erf(v) for v in box.b / density.scale])))


def _require_gaussian(density, what):
    if density.kind != GAUSSIAN:
        raise ValueError(
            f"{what} has a closed form only for the gaussian density; "
            "use box_discrepancy_quadrature for other product densities"
        )


def _check_dims(freqs_d, density, box):
    if not (freqs_d == density.d == box.d):
        raise ValueError(
            f"dimension mismatch: frequencies d={freqs_d}, density d={density.d}, box d={box.d}"
        )


def _exclusive_products(F):
    """Row-wise products over all columns but one: out[:, j] = prod_{q != j} F[:, q]."""
    out = np.ones_like(F)
    out[:, 1:] = np.cumprod(F[:, :-1], axis=1)
    out[:, :-1] *= np.cumprod(F[:, :0:-1], axis=1)[:, ::-1]
    return out


def _gaussian_pass(W, density, box, with_grad):
    """Closed-form (term1, term2, term3) and, when ``with_grad``, the s x d
    gradient of their sum, from one sweep over the upper triangle of the
    pair grid.

    Row block [r0, r1) is swept against columns r0..s-1, so each unordered
    pair is met once.  The block's diagonal square holds both orders of its
    pairs; the rectangle beyond it counts twice in the pair sum.  In the
    gradient a rectangle term goes to row l and, negated, to row m, since
    sinc' is odd in the lag and the other factors are even.  The product
    over q != j comes from running prefix and suffix products, so a block
    costs O(d) array operations rather than O(d^2).  A block holds about
    _BLOCK_ENTRIES pairs in each dimension.

    sin and cos of b_j (w_lj - w_mj) come from the per-point values by
    angle addition, and the slope from d/dt sin(b t)/t = (b cos(b t) -
    sin(b t)/t) / t.  Where |b_j (w_lj - w_mj)| < _NEAR_LAG the identity
    loses relative accuracy, and `_sinc_series` evaluates those entries, so
    no sine or cosine is taken on the pair grid.
    """
    W = np.asarray(W, dtype=float)
    s, d = W.shape
    if s < 1:
        raise ValueError("the Gaussian discrepancy requires at least one frequency (s >= 1)")
    b = box.b
    sin_w, cos_w = _point_sincos(b, W)
    # In each dimension the lag w_l - w_m and the angle-addition grids
    # (sin_l cos_m - cos_l sin_m) / pi and (cos_l cos_m + sin_l sin_m) / pi
    # are products of per-point rows (lag, sin, cos) x 4 and columns 4 x s,
    # which BLAS writes in one pass.  The zero entries add exact zeros, so
    # the lag is the correctly rounded difference.
    columns = np.empty((d, 4, s))
    columns[:, 0] = 1.0
    columns[:, 1] = -W.T
    columns[:, 2] = cos_w.T / np.pi
    columns[:, 3] = sin_w.T / np.pi
    point_rows = np.zeros((3 if with_grad else 2, d, s, 4))
    point_rows[0, :, :, 0] = W.T
    point_rows[0, :, :, 1] = 1.0
    point_rows[1, :, :, 2] = sin_w.T
    point_rows[1, :, :, 3] = -cos_w.T
    if with_grad:
        point_rows[2, :, :, 2] = cos_w.T
        point_rows[2, :, :, 3] = sin_w.T
    near = (_NEAR_LAG / b)[:, None, None]
    pair_sum = 0.0
    grad = np.zeros((s, d)) if with_grad else None
    r0 = 0
    while r0 < s:
        r1 = min(s, r0 + max(1, _BLOCK_ENTRIES // (s - r0)))
        rows = r1 - r0
        # d x rows x (s - r0) grids of lags, sinc factors and their slopes.
        grids = point_rows[:, :, r0:r1] @ columns[:, :, r0:]
        t, f = grids[0], grids[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            f /= t
            if with_grad:
                df = grids[2]
                df *= b[:, None, None]
                df -= f
                df /= t
        idx = np.flatnonzero(np.abs(t) < near)
        series = _sinc_series(b[idx // t[0].size], t.take(idx), slope=with_grad)
        if not with_grad:
            f.put(idx, series)
            prod = np.prod(f, axis=0)
        else:
            f.put(idx, series[0])
            df.put(idx, series[1])
            # df[j] becomes the slope of factor j times all the other factors;
            # the suffix product may overwrite f, which is not needed again.
            prod = f[0].copy()
            for j in range(1, d):
                df[j] *= prod
                prod *= f[j]
            trail = f[d - 1]
            for j in range(d - 2, -1, -1):
                df[j] *= trail
                if j:
                    trail *= f[j]
            # sinc'(0) = 0 zeroes the diagonal, so the m != l restriction is free.
            grad[r0:r1] += df.sum(axis=2).T
            grad[r1:] -= df[:, :, rows:].sum(axis=1).T
        pair_sum += float(prod[:, :rows].sum()) + 2.0 * float(prod[:, rows:].sum())
        r0 = r1

    G = gaussian_point_factors(density, box, W)
    term1 = pair_sum / (s * s)
    term2 = -2.0 / s * float(np.prod(G, axis=1).sum())
    term3 = gaussian_mean_norm_sq(density, box)
    if not with_grad:
        return (term1, term2, term3), None

    grad *= 2.0 / (s * s)
    grad -= (2.0 / s) * gaussian_point_slopes(density, box, W, G) * _exclusive_products(G)
    return (term1, term2, term3), grad


def gaussian_discrepancy_terms(W, density, box):
    """Closed-form (term1, term2, term3) for a raw s x d frequency array."""
    return _gaussian_pass(W, density, box, with_grad=False)[0]


def gaussian_value_and_grad(W, density, box):
    """Squared discrepancy of a raw s x d frequency array and its s x d
    gradient, from the same pass that gives `gaussian_discrepancy_terms`.

    Entry (l, j) of the gradient is

        (2/s^2) sum_{m != l} b_j^2/pi sinc'(b_j (w_lj - w_mj))
                             prod_{q != j} sinc-factor_q(w_lq - w_mq)
        - (2/s) g_j'(w_lj) prod_{q != j} g_q(w_lq).
    """
    terms, grad = _gaussian_pass(W, density, box, with_grad=True)
    return sum(terms), grad


def box_discrepancy_gaussian(freqs, density, box):
    """Closed-form squared box discrepancy for the Gaussian density."""
    _require_gaussian(density, "box_discrepancy_gaussian")
    _check_dims(freqs.d, density, box)
    if freqs.s < 1:
        raise ValueError("box_discrepancy_gaussian requires at least one frequency")
    term1, term2, term3 = gaussian_discrepancy_terms(freqs.points, density, box)
    return DiscrepancyReport(d_squared=term1 + term2 + term3,
                             term1=term1, term2=term2, term3=term3,
                             s=freqs.s, d=freqs.d)


def box_discrepancy_quadrature(freqs, density, box, nodes=200):
    """Squared box discrepancy via per-dimension Gauss-Legendre quadrature.

    Evaluates the characteristic-function integrals int |phi_j|^2 and
    int phi_j cos(w beta) over [0, b_j] (both integrands are even) with
    ``nodes`` Gauss-Legendre points per dimension.  Works for any product
    density; restricted to d <= 3 because it serves as the test oracle for
    the closed form.  With s = 0 only the squared kernel-mean norm remains.
    """
    _check_dims(freqs.d, density, box)
    d = freqs.d
    if d > 3:
        raise ValueError(f"box_discrepancy_quadrature supports d <= 3, got d={d}")
    if nodes < 32:
        raise ValueError(f"box_discrepancy_quadrature requires nodes >= 32, got {nodes}")
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    W = freqs.points
    s = W.shape[0]

    term1 = 1.0
    cross = np.ones(s)
    for j in range(d):
        beta = 0.5 * box.b[j] * (gl_x + 1.0)
        wq = 0.5 * box.b[j] * gl_w
        phi = characteristic_profile(density, j, beta)
        i1 = 2.0 * float(np.sum(wq * phi * phi))
        term1 *= i1 / (2.0 * math.pi)
        if s:
            i2 = 2.0 * (np.cos(np.outer(W[:, j], beta)) @ (wq * phi))
            cross *= i2 / (2.0 * math.pi)
    if s == 0:
        return term1
    term2 = -2.0 / s * float(cross.sum())
    term3 = float(sinc_gram(box, W).sum()) / (s * s)
    return term1 + term2 + term3


def expected_mc_discrepancy(s, density, box):
    """Expected squared discrepancy of s i.i.d. frequencies drawn from the density.

    (1/s) * (pi^-d prod_j b_j - prod_j sigma_j/(2 sqrt(pi)) erf(b_j/sigma_j))
    for the Gaussian density.
    """
    _require_gaussian(density, "expected_mc_discrepancy")
    if density.d != box.d:
        raise ValueError(f"dimension mismatch: density d={density.d}, box d={box.d}")
    if s < 1:
        raise ValueError(f"expected_mc_discrepancy requires s >= 1, got {s}")
    diag = float(np.prod(box.b)) / math.pi ** box.d
    return (diag - gaussian_mean_norm_sq(density, box)) / s


def assemble_H_v(freqs, density, box):
    """Quadratic-form data for weight optimization.

    H is the (PSD) sinc-kernel Gram matrix of the frequencies and v_l the
    kernel-mean inner product at w_l, so that the weighted squared
    discrepancy is  const - 2 v.xi + xi.H.xi.
    """
    _require_gaussian(density, "assemble_H_v")
    _check_dims(freqs.d, density, box)
    H = sinc_gram(box, freqs.points)
    v = np.prod(gaussian_point_factors(density, box, freqs.points), axis=1)
    return H, v


def weighted_discrepancy(freqs, weights, density, box):
    """Squared box discrepancy of the weighted empirical mean sum_l xi_l h(w_l, .)."""
    _require_gaussian(density, "weighted_discrepancy")
    _check_dims(freqs.d, density, box)
    xi = np.asarray(weights, dtype=float)
    if xi.shape != (freqs.s,):
        raise ValueError(f"weights must have shape ({freqs.s},)")
    if np.any(xi < 0.0):
        raise ValueError("weights must be nonnegative")
    H, v = assemble_H_v(freqs, density, box)
    term1 = gaussian_mean_norm_sq(density, box)
    return float(term1 - 2.0 * (v @ xi) + xi @ H @ xi)


@dataclass
class AverageCaseReport:
    """Empirical vs predicted mean squared integration error over the box."""

    empirical: float
    predicted: float
    stderr: float
    n_samples: int

    def to_json_dict(self):
        return {
            "empirical": self.empirical,
            "predicted": self.predicted,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
        }


def average_case_mc_check(freqs, density, box, n_samples, seed, chunk=65536):
    """Monte Carlo check that the mean squared error over the box matches
    pi^d / prod_j b_j times the squared discrepancy.

    Draws u uniform on the box and evaluates the exact integral of
    e^{-i u.x} against the density (a product of characteristic-function
    values) minus the plain empirical average over the frequencies.
    """
    _require_gaussian(density, "average_case_mc_check")
    _check_dims(freqs.d, density, box)
    if n_samples < 1000:
        raise ValueError(f"average_case_mc_check requires n_samples >= 1000, got {n_samples}")
    rng = np.random.Generator(np.random.PCG64(seed))
    W = freqs.points
    s = freqs.s
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        u = rng.uniform(-box.b, box.b, size=(m, box.d))
        exact = np.ones(m)
        for j in range(box.d):
            exact *= characteristic_profile(density, j, u[:, j])
        empirical_mean = np.exp(-1j * (u @ W.T)).sum(axis=1) / s
        err_sq = np.abs(exact - empirical_mean) ** 2
        total += float(err_sq.sum())
        total_sq += float((err_sq * err_sq).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(var / n_samples)
    d2 = box_discrepancy_gaussian(freqs, density, box).d_squared
    predicted = math.pi ** box.d / float(np.prod(box.b)) * d2
    return AverageCaseReport(empirical=mean, predicted=predicted,
                             stderr=stderr, n_samples=n_samples)
