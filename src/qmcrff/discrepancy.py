"""Box-discrepancy machinery for frequency sequences.

The squared box discrepancy of a frequency set S = {w_1..w_s} against a
product density p over the band-limited box [-b_1,b_1] x ... x [-b_d,b_d]
is the squared RKHS distance between the kernel mean of p and the empirical
mean over S in the sinc-kernel space.  It splits into three terms:

    term1: (1/s^2) sum_{l,m} sinc_b(w_l, w_m)          (pairwise)
    term2: -(2/s)  sum_l prod_j g_j(w_lj)              (cross)
    term3: prod_j (1/pi) int_0^{b_j} phi_j(beta)^2 dbeta   (constant)

with g_j(x) = (1/pi) int_0^{b_j} phi_j(beta) cos(x beta) dbeta for the
characteristic function phi_j of the j-th marginal.  Only the cross factors,
their slopes and the constant depend on the density, and both densities
have them in closed form:

    Gaussian (Gaussian kernel): g_j(x) = c_j exp(-sigma_j^2 x^2 / 2)
        Re erf(b_j/(sigma_j sqrt(2)) - i sigma_j x / sqrt(2)),
        c_j = sigma_j / sqrt(2 pi);  term3 = prod_j sigma_j/(2 sqrt(pi)) erf(b_j/sigma_j).
    Cauchy (Laplacian kernel), a_j = 1/sigma_j: g_j(x) =
        [a_j (1 - e^{-a_j b_j} cos b_j x) + e^{-a_j b_j} x sin b_j x] / (pi (a_j^2 + x^2));
        term3 = prod_j sigma_j (1 - exp(-2 b_j/sigma_j)) / (2 pi).

The pairwise term is the same for every density.  `BoxObjective(density,
box)` derives the density's half once and evaluates the terms, the value
with its gradient, and the quadratic form of weighted sets; every optimizer
in `qmcrff.adaptive` builds one per run.  The `gaussian_*` functions,
`assemble_H_v` and `qmcrff.adaptive.discrepancy_gradient` are thin wrappers
that build the object per call; the benchmark's tracer and probes look them
up by name.  The closed forms are the only evaluation here; the tests check
them against per-dimension Gauss-Legendre integration of the integrals above.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densities import GAUSSIAN, characteristic_profile, positive_vector
from .specfun import re_erf_damped_grid

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Rows per block of the pairwise sweep are chosen so that one block's
# per-dimension factor arrays hold about this many entries each.  The
# s = 512, d = 8 value pass took 5.05 ms at 2^12 against 5.23 ms at 2^14
# (2 vCPUs), and a smaller block's grids hold less memory.
_BLOCK_ENTRIES = 1 << 12

# Below this |b * lag| the pairwise sweep and `_sinc_factor` evaluate the
# sinc factor and its slope by `_sinc_series` rather than by angle addition
# or sine and cosine, whose absolute rounding error grows relative to the
# slope there: just above it the sweep's slope is off by up to ~15 eps of
# b^2/pi.
_NEAR_LAG = 0.25

# The same cutoff for the sweep's value alone (no slope).  There the angle
# addition's absolute error of about eps in sin(b t) only costs about
# eps / |b t| relative, 100 eps at the cutoff, with no cancellation, and
# far fewer pairs take the gather and scatter of the series.
_NEAR_LAG_VALUE = 1e-2

# Taylor coefficients of sin(z)/z in z^2, (-1)^k / (2k+1)! for k <= 6, and
# those of its slope over z, 2k (-1)^k / (2k+1)! for 1 <= k <= 6.  At
# |z| <= _NEAR_LAG the first omitted term is below 2e-18 of either sum; the
# last kept one still moves the slope by 5e-15 of its value.
_SINC_SERIES = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(7))
_SINC_SLOPE_SERIES = tuple(2 * k * c for k, c in enumerate(_SINC_SERIES))[1:]

_MC_CHUNK = 65536  # box samples per batch of `average_case_mc_check`

# Below b_j max(|w_lj|, 1/sigma_j) = _SLOPE_CUTOFF the cross-factor slopes
# come from `_slope_series`: the closed forms subtract two terms of order b
# whose difference is O(b^3).  Against 50-digit mpmath the series is within
# 3e-16 of the slope below the cutoff, and the closed forms within 1e-10
# just above it.  Where b_j / sigma_j is below the cutoff but b_j |w_lj| is
# not, the Gaussian closed form stays off by about 5 eps (sigma_j / b_j)^2.
_SLOPE_CUTOFF = 1e-2


def _slope_series_table(p_degree, rows, cols):
    """C[m, n] = 1 / (m! (2n+1)! (p_degree m + 2n + 3)), the coefficients
    of P^m Q^n in `_slope_series`."""
    return np.array([[1.0 / (math.factorial(m) * math.factorial(2 * n + 1)
                             * (p_degree * m + 2 * n + 3)) for n in range(cols)]
                     for m in range(rows)])


# Sized so that at the cutoff the first omitted term is below 1e-18 of the
# sum: P is O(cutoff^2) for the Gaussian and O(cutoff) for the Cauchy density.
_GAUSSIAN_SLOPE_SERIES = _slope_series_table(2, 4, 4)
_CAUCHY_SLOPE_SERIES = _slope_series_table(1, 8, 4)


@dataclass
class Box:
    """Per-dimension half-widths b_j > 0 of the frequency-domain box."""

    b: np.ndarray

    def __post_init__(self):
        self.b = positive_vector(self.b, "b")

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
    """sin(b*t) / (pi*t) with the diagonal convention sin(b*0)/0 = b, and
    with ``slope`` its derivative in t, (b^2/pi) sinc'(b*t), as well.

    Below |b*t| = _NEAR_LAG both come from `_sinc_series`, as in the pair
    sweep; there the slope cos(z)/z - sin(z)/z^2 would cancel.  ``b`` may
    be a vector that broadcasts against ``t``.
    """
    t = np.asarray(t, dtype=float)
    bt = np.asarray(b * t)
    sin_bt = np.sin(bt)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.asarray(sin_bt / (np.pi * t))
        if slope:
            dfactor = np.asarray((np.cos(bt) / bt - sin_bt / (bt * bt)) * (b * b / np.pi))
    near = np.abs(bt) < _NEAR_LAG
    if near.any():
        series = _sinc_series(np.broadcast_to(b, bt.shape)[near], t[near], slope=slope)
        if not slope:
            factor[near] = series
        else:
            factor[near], dfactor[near] = series
    return (factor, dfactor) if slope else factor


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


def sinc_gram(box, W):
    """Sinc-kernel Gram matrix of the rows of W: the upper triangle from the
    closed form's pair sweep, mirrored, so it is exactly symmetric."""
    W = np.asarray(W, dtype=float)
    s = W.shape[0]
    H = np.zeros((s, s))
    for r0, r1, f, _ in _pair_blocks(W, box.b, slope=False):
        np.prod(f, axis=0, out=H[r0:r1, r0:])
    return np.triu(H) + np.triu(H, 1).T


def _slope_series(slope, W, b, dims, P, table):
    """``slope`` with its entries where b_j max(|w_lj|, 1/sigma_j) < _SLOPE_CUTOFF
    replaced by the Taylor series in b of g_j'(x) = -(1/pi) int_0^b_j beta
    phi_j(beta) sin(x beta) dbeta:

        g_j'(x) = -(x b_j^3 / pi) sum_{m,n} table[m, n] P_j^m (-(b_j x)^2)^n,

    with P_j = -b_j^2 / (2 sigma_j^2) and phi_j(beta) = e^{-beta^2/(2 sigma_j^2)}
    for the Gaussian density, P_j = -b_j / sigma_j and phi_j(beta) =
    e^{-beta/sigma_j} for the Cauchy one.  ``dims`` marks the j with
    b_j < _SLOPE_CUTOFF sigma_j.  ``slope`` is overwritten.
    """
    near = dims & (np.abs(b * W) < _SLOPE_CUTOFF)
    x = W[near]
    bn = np.broadcast_to(b, W.shape)[near]
    Q = -(bn * x) ** 2
    series = _horner([_horner(row, Q) for row in table], np.broadcast_to(P, W.shape)[near])
    slope[near] = -(x * bn ** 3 / np.pi) * series
    return slope


def _gaussian_closed_form(density, box):
    """(factors, slopes, norm_sq) of the Gaussian density over ``box``, with
    every constant that depends only on the density and the box taken once:

        g_j(x) = c_j exp(-sigma_j^2 x^2 / 2) Re erf(a_j - i sigma_j x / sqrt(2)),
        g_j'(x) = -sigma_j^2 x g_j(x) + sqrt(2/pi) c_j sigma_j exp(-b_j^2/(2 sigma_j^2)) sin(b_j x),

    with c_j = sigma_j / sqrt(2 pi) and a_j = b_j / (sigma_j sqrt(2)); the
    slopes come from `_slope_series` where that cancels.  ``slopes(W, G)``
    takes G = factors(W).  norm_sq = prod_j sigma_j/(2 sqrt(pi)) erf(b_j/sigma_j).
    """
    sigma, b = density.scale, box.b
    c = sigma / _SQRT_2PI
    a = b / (sigma * _SQRT_2)
    neg_var = -(sigma * sigma)
    edge = _SQRT_2_OVER_PI * c * sigma * np.exp(-b * b / (2.0 * sigma * sigma))
    dims = b < _SLOPE_CUTOFF * sigma
    series = dims.any()
    P = -0.5 * (b / sigma) ** 2

    def factors(W):
        return c * re_erf_damped_grid(a, sigma * W / _SQRT_2)

    def slopes(W, G):
        slope = neg_var * W * G + edge * np.sin(b * W)
        return _slope_series(slope, W, b, dims, P, _GAUSSIAN_SLOPE_SERIES) if series else slope

    norm_sq = float(np.prod(sigma / (2.0 * _SQRT_PI) * np.array([math.erf(v) for v in b / sigma])))
    return factors, slopes, norm_sq


def _cauchy_closed_form(density, box):
    """(factors, slopes, norm_sq) of the Cauchy density over ``box``, with
    every constant that depends only on the density and the box taken once;
    a_j = 1/sigma_j:

        g_j(x) = [-expm1(-a_j b_j) a_j cos(b_j x) + 2 a_j sin^2(b_j x / 2)
                  + e^{-a_j b_j} x sin(b_j x)] / (pi (a_j^2 + x^2)),
        g_j'(x) = e^{-a_j b_j} ((a_j b_j + 1) sin(b_j x) + b_j x cos(b_j x)) / (pi (a_j^2 + x^2))
                  - 2 x g_j(x) / (a_j^2 + x^2).

    Written with expm1 and the half-angle sine, the first two terms of g_j
    do not cancel as b_j -> 0 (a constant feature's half-width is 1e-12);
    the slopes come from `_slope_series` where they cancel.  ``slopes(W, G)``
    takes G = factors(W).  norm_sq = prod_j sigma_j (1 - exp(-2 b_j/sigma_j)) / (2 pi).
    """
    a, b = 1.0 / density.scale, box.b
    damp = np.exp(-a * b)
    lead = -np.expm1(-a * b) * a
    two_a, a_sq, ab_1 = 2.0 * a, a * a, a * b + 1.0
    dims = b < _SLOPE_CUTOFF * density.scale
    series = dims.any()
    P = -a * b

    def factors(W):
        bw = b * W
        half = np.sin(0.5 * bw)
        num = lead * np.cos(bw)
        num += two_a * half * half
        num += damp * W * np.sin(bw)
        return num / (np.pi * (a_sq + W * W))

    def slopes(W, G):
        bw = b * W
        edge = damp * (ab_1 * np.sin(bw) + bw * np.cos(bw)) / np.pi
        slope = (edge - 2.0 * W * G) / (a_sq + W * W)
        return _slope_series(slope, W, b, dims, P, _CAUCHY_SLOPE_SERIES) if series else slope

    norm_sq = float(np.prod(density.scale * -np.expm1(-2.0 * b / density.scale) / (2.0 * math.pi)))
    return factors, slopes, norm_sq


def _exclusive_products(F):
    """Row-wise products over all columns but one: out[:, j] = prod_{q != j} F[:, q]."""
    out = np.ones_like(F)
    out[:, 1:] = np.cumprod(F[:, :-1], axis=1)
    out[:, :-1] *= np.cumprod(F[:, :0:-1], axis=1)[:, ::-1]
    return out


def _pair_blocks(W, b, slope):
    """Upper triangle of the pair grid, row block [r0, r1) against columns
    r0..s-1 (about _BLOCK_ENTRIES pairs per dimension), so each unordered
    pair is met once and the block's diagonal square holds both orders of
    its pairs.  Yields (r0, r1, f, df): f[j, i, k] = sin(b_j t) / (pi t) at
    t = w_(r0+i)j - w_(r0+k)j, and df its slope in t when ``slope``.

    sin and cos of b_j t come from the per-point values by angle addition,
    and the slope from d/dt sin(b t)/t = (b cos(b t) - sin(b t)/t) / t.
    Where |b_j t| is below the cutoff, _NEAR_LAG with ``slope`` and
    _NEAR_LAG_VALUE without, the identity loses relative accuracy, and
    `_sinc_series` evaluates those entries: no sine is taken on the grid.
    """
    s, d = W.shape
    sin_w, cos_w = _point_sincos(b, W)
    # In each dimension the lag w_l - w_m and the angle-addition grids
    # (sin_l cos_m - cos_l sin_m) / pi and (cos_l cos_m + sin_l sin_m) / pi
    # are products of per-point rows (lag, sin, cos) x 4 and columns 4 x s,
    # which BLAS writes in one pass.  The zero entries add exact zeros, so
    # the lag is the correctly rounded difference.
    columns = np.stack([np.ones((d, s)), -W.T, cos_w.T / np.pi, sin_w.T / np.pi], axis=1)
    point_rows = np.zeros((3 if slope else 2, d, s, 4))
    point_rows[0, :, :, 0] = W.T
    point_rows[0, :, :, 1] = 1.0
    point_rows[1, :, :, 2] = sin_w.T
    point_rows[1, :, :, 3] = -cos_w.T
    if slope:
        point_rows[2, :, :, 2] = cos_w.T
        point_rows[2, :, :, 3] = sin_w.T
    near = ((_NEAR_LAG if slope else _NEAR_LAG_VALUE) / b)[:, None, None]
    # One buffer holds each block's grids, |t| and the near-lag mask (a
    # byte per entry, at its end) in turn, so a call allocates them once,
    # not once per block.  A block has at most max(s, _BLOCK_ENTRIES) pairs
    # per dimension, and never more than s^2.
    k = point_rows.shape[0]
    block = d * min(s * s, max(s, _BLOCK_ENTRIES))
    buffer = np.empty((k + 1) * block + -(-block // 8))
    mask_bytes = buffer[(k + 1) * block:].view(np.bool_)
    r0 = 0
    while r0 < s:
        r1 = min(s, r0 + max(1, _BLOCK_ENTRIES // (s - r0)))
        # d x rows x (s - r0) grids of lags, sinc factors, their slopes and |t|.
        shape = (d, r1 - r0, s - r0)
        size = d * (r1 - r0) * (s - r0)
        work = buffer[:(k + 1) * size].reshape(k + 1, *shape)
        grids = work[:k]
        np.matmul(point_rows[:, :, r0:r1], columns[:, :, r0:], out=grids)
        t, f = grids[0], grids[1]
        df = grids[2] if slope else None
        mask = mask_bytes[:size].reshape(shape)
        np.less(np.abs(t, out=work[k]), near, out=mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            f /= t
            if slope:
                df *= b[:, None, None]
                df -= f
                df /= t
        idx = np.flatnonzero(mask)
        series = _sinc_series(b[idx // t[0].size], t.take(idx), slope=slope)
        if not slope:
            f.put(idx, series)
        else:
            f.put(idx, series[0])
            df.put(idx, series[1])
        yield r0, r1, f, df
        r0 = r1


class BoxObjective:
    """The closed-form squared box discrepancy against one density over one
    box, for any frequency set of the box's dimension.

    The density's half of the closed form, its cross factors W -> G with
    G[l, j] = g_j(w_lj), their slopes (W, G) -> G' and the constant term
    ``norm_sq`` (the squared norm of the kernel mean), is derived once, when
    the object is built, so an optimizer that evaluates many W builds one
    object per run.  This is the one place that reads ``density.kind``.
    """

    def __init__(self, density, box):
        if density.d != box.d:
            raise ValueError(f"dimension mismatch: density d={density.d}, box d={box.d}")
        closed_form = _gaussian_closed_form if density.kind == GAUSSIAN else _cauchy_closed_form
        self.box = box
        self.factors, self.slopes, self.norm_sq = closed_form(density, box)

    def rows(self, W):
        """W as a float array of frequency rows, checked against the box's d."""
        W = np.asarray(W, dtype=float)
        s, d = W.shape
        if d != self.box.d:
            raise ValueError(
                f"dimension mismatch: frequencies d={d}, density and box d={self.box.d}")
        return W

    def _pass(self, W, with_grad):
        """Closed-form (term1, term2, term3) and, when ``with_grad``, the s x d
        gradient of their sum, from one `_pair_blocks` sweep.  The rectangle
        beyond a block's diagonal square counts twice in the pair sum; in the
        gradient its term goes to row l and, negated, to row m, since sinc' is
        odd in the lag and the other factors are even.  Prefix and suffix
        products give the product over q != j in O(d) operations per block."""
        W = self.rows(W)
        s, d = W.shape
        if s < 1:
            raise ValueError("the discrepancy requires at least one frequency (s >= 1)")
        pair_sum = 0.0
        grad = np.zeros((s, d)) if with_grad else None
        for r0, r1, f, df in _pair_blocks(W, self.box.b, slope=with_grad):
            rows = r1 - r0
            if not with_grad:
                prod = np.prod(f, axis=0)
            else:
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

        G = self.factors(W)
        terms = (pair_sum / (s * s), -2.0 / s * float(np.prod(G, axis=1).sum()), self.norm_sq)
        if not with_grad:
            return terms, None

        grad *= 2.0 / (s * s)
        grad -= (2.0 / s) * self.slopes(W, G) * _exclusive_products(G)
        return terms, grad

    def terms(self, W):
        """Closed-form (term1, term2, term3) for a raw s x d frequency array."""
        return self._pass(W, with_grad=False)[0]

    def value_and_grad(self, W):
        """Squared discrepancy of a raw s x d frequency array and its s x d
        gradient, from the same pass as `terms`.  Entry (l, j) of the
        gradient is

            (2/s^2) sum_{m != l} b_j^2/pi sinc'(b_j (w_lj - w_mj))
                                 prod_{q != j} sinc-factor_q(w_lq - w_mq)
            - (2/s) g_j'(w_lj) prod_{q != j} g_q(w_lq).
        """
        terms, grad = self._pass(W, with_grad=True)
        return sum(terms), grad

    def H_v(self, W):
        """Quadratic-form data for weight optimization: H is the (PSD)
        sinc-kernel Gram matrix of the rows of W and v_l the kernel-mean
        inner product at w_l, so that the weighted squared discrepancy is
        norm_sq - 2 v.xi + xi.H.xi."""
        W = self.rows(W)
        return sinc_gram(self.box, W), np.prod(self.factors(W), axis=1)


def gaussian_discrepancy_terms(W, density, box):
    """`BoxObjective.terms`, for either density."""
    return BoxObjective(density, box).terms(W)


def gaussian_value_and_grad(W, density, box):
    """`BoxObjective.value_and_grad`, for either density."""
    return BoxObjective(density, box).value_and_grad(W)


def box_discrepancy_gaussian(freqs, density, box):
    """Closed-form squared box discrepancy, for the Gaussian and the Cauchy
    density alike (the name predates the Cauchy closed form)."""
    term1, term2, term3 = gaussian_discrepancy_terms(freqs.points, density, box)
    return DiscrepancyReport(d_squared=term1 + term2 + term3,
                             term1=term1, term2=term2, term3=term3,
                             s=freqs.s, d=freqs.d)


def expected_mc_discrepancy(s, density, box):
    """Expected squared discrepancy of s i.i.d. frequencies drawn from the density.

    (1/s) * (pi^-d prod_j b_j - term3), with term3 the squared norm of the
    kernel mean (`BoxObjective.norm_sq`).
    """
    norm_sq = BoxObjective(density, box).norm_sq
    if s < 1:
        raise ValueError(f"expected_mc_discrepancy requires s >= 1, got {s}")
    diag = float(np.prod(box.b)) / math.pi ** box.d
    return (diag - norm_sq) / s


def assemble_H_v(freqs, density, box):
    """`BoxObjective.H_v` of the frequencies."""
    return BoxObjective(density, box).H_v(freqs.points)


def weighted_discrepancy(freqs, weights, density, box):
    """Squared box discrepancy of the weighted empirical mean sum_l xi_l h(w_l, .)."""
    objective = BoxObjective(density, box)
    W = objective.rows(freqs.points)
    xi = np.asarray(weights, dtype=float)
    if xi.shape != (freqs.s,):
        raise ValueError(f"weights must have shape ({freqs.s},)")
    if np.any(xi < 0.0):
        raise ValueError("weights must be nonnegative")
    H, v = objective.H_v(W)
    return float(objective.norm_sq - 2.0 * (v @ xi) + xi @ H @ xi)


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


def average_case_mc_check(freqs, density, box, n_samples, seed):
    """Monte Carlo check that the mean squared error over the box matches
    pi^d / prod_j b_j times the squared discrepancy.

    Draws u uniform on the box and evaluates the exact integral of
    e^{-i u.x} against the density (a product of characteristic-function
    values) minus the plain empirical average over the frequencies.
    """
    objective = BoxObjective(density, box)
    W = objective.rows(freqs.points)
    if freqs.s < 1:
        raise ValueError(f"average_case_mc_check requires s >= 1, got {freqs.s}")
    if n_samples < 1000:
        raise ValueError(f"average_case_mc_check requires n_samples >= 1000, got {n_samples}")
    rng = np.random.Generator(np.random.PCG64(seed))
    s = freqs.s
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
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
    d2 = sum(objective.terms(W))
    predicted = math.pi ** box.d / float(np.prod(box.b)) * d2
    return AverageCaseReport(empirical=mean, predicted=predicted,
                             stderr=stderr, n_samples=n_samples)
