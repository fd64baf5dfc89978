"""Special functions used by the closed-form discrepancy and its gradient.

Everything here is a thin layer over libm and ``scipy.special``:

* `erf_real` is libm's erf and `erf_complex_real` is the real part of
  scipy's complex ``erf``; both reject non-finite arguments.
* `re_erf_damped_grid`, which the discrepancy kernels call, gives
  exp(-b^2) Re erf(a + ib) from scipy's Faddeeva function ``wofz`` in one
  closed form broadcast over all its arguments, so no intermediate
  exp(b^2) is ever formed.  Near the imaginary axis, where that closed
  form cancels, a short Taylor series takes over.  `re_erf_damped` is its
  scalar entry.
* `normal_quantile` is scipy's ``ndtri`` scaled to the kernel bandwidth;
  `cauchy_quantile` is the closed-form Cauchy quantile.

All functions are pure and hold no global state.
"""

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

# Near-axis region of the damped erf, |a| <= this bound and 2|ab| <= 1,
# where its Taylor series replaces the cancelling wofz closed form.
_NEAR_AXIS_A = 0.125
_NEAR_AXIS_TERMS = 24


def erf_real(x):
    """Error function of a real argument (absolute error below 1e-15)."""
    if not math.isfinite(x):
        raise ValueError(f"erf_real requires a finite argument, got {x!r}")
    return math.erf(x)


def erf_complex_real(a, b):
    """Real part of erf(a + i*b), from scipy's complex ``erf``.

    Against a 40-digit mpmath oracle the relative error stays below 1e-12
    for |a|, |b| <= 30, tiny |a| next to the zero crossing at a = 0
    included (the function is odd in ``a``).  When the true value exceeds
    the double range the signed infinity is returned.
    """
    from scipy.special import erf

    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"erf_complex_real requires finite arguments, got ({a!r}, {b!r})")
    if b == 0.0:
        # libm's erf, so the real axis agrees with `erf_real` bit for bit.
        return math.erf(a)
    return float(erf(complex(a, b)).real)


def re_erf_damped(a, b):
    """exp(-b^2) * Re(erf(a + i*b)), computed without forming exp(b^2).

    This is the combination the Gaussian discrepancy terms need: the
    Gaussian prefactor exactly cancels the growth of Re erf along the
    imaginary direction, so the product stays bounded for every finite
    frequency.  Scalar entry into `re_erf_damped_grid`.
    """
    return float(re_erf_damped_grid(a, b))


def _damped_series(a, b):
    """(2/sqrt(pi)) int_0^a exp(-t^2) cos(2bt) dt = exp(-b^2) Re erf(a + ib)
    for a >= 0, b >= 0 (floats or arrays) with a <= _NEAR_AXIS_A and 2ab <= 1.

    Term by term, exp(-t^2) cos(2bt) = sum_n H_n(ib) t^n / n! over even n.
    With u_n = |H_n(ib)| a^n / n!, which obeys
    u_{n+1} = (2ab u_n + 2a^2 u_{n-1}) / (n+1), the integral is
    (2/sqrt(pi)) a sum_m (-1)^m u_{2m} / (2m+1).  In this region
    u_n < 1.2^n / n!, so a fixed number of terms is exact to rounding and
    the alternating sum loses no digits.
    """
    two_ab = 2.0 * a * b
    two_a2 = 2.0 * a * a
    u_prev, u = np.ones_like(a), two_ab
    total = np.ones_like(a)
    for n in range(1, _NEAR_AXIS_TERMS):
        u_prev, u = u, (two_ab * u + two_a2 * u_prev) / (n + 1)
        if n % 2:
            m = (n + 1) // 2
            total += (-1.0 if m % 2 else 1.0) * u / (2 * m + 1)
    return (2.0 / _SQRT_PI) * a * total


def re_erf_damped_grid(a, b):
    """exp(-b^2) Re erf(a + ib) elementwise over broadcast arrays ``a`` and ``b``.

    Uses exp(-b^2) Re erf(a + ib) = sgn(a) (exp(-b^2) - exp(-a^2)
    [cos(2|a||b|) Re w + sin(2|a||b|) Im w]) with w = wofz(-|b| + i|a|),
    so one call serves every entry of the per-point factor matrix.  Near
    the imaginary axis (|a| <= 1/8 and 2|ab| <= 1) the two terms would
    cancel down to about 2a/sqrt(pi); those entries come from the Taylor
    series of the integral form instead, so the relative error stays
    near rounding for every |a|, however small.
    """
    from scipy.special import wofz

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("re_erf_damped_grid requires finite arguments")
    aa = np.abs(a)
    bb = np.abs(b)
    w = wofz(-bb + 1j * aa)
    two_ab = 2.0 * aa * bb
    inner = np.cos(two_ab) * w.real + np.sin(two_ab) * w.imag
    out = np.exp(-bb * bb) - np.exp(-aa * aa) * inner
    if aa.size and aa.min() <= _NEAR_AXIS_A:
        near = (aa <= _NEAR_AXIS_A) & (two_ab <= 1.0)
        if near.any():
            out = np.array(out)
            out[near] = _damped_series(np.broadcast_to(aa, out.shape)[near],
                                       np.broadcast_to(bb, out.shape)[near])
    return np.sign(a) * out


def normal_quantile(u, sigma):
    """Quantile of the zero-mean normal density with standard deviation 1/sigma.

    ``sigma`` is the Gaussian kernel bandwidth; the matching frequency
    density has variance sigma**-2, so the result is ndtri(u)/sigma.
    """
    from scipy.special import ndtri

    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {u!r} (unclamped cube point?)")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"normal_quantile requires sigma > 0, got {sigma!r}")
    return float(ndtri(u)) / sigma


def cauchy_quantile(u, gamma):
    """Quantile of the Cauchy density with scale gamma."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"cauchy_quantile requires 0 < u < 1, got {u!r} (unclamped cube point?)")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"cauchy_quantile requires gamma > 0, got {gamma!r}")
    return gamma * math.tan(math.pi * (u - 0.5))

