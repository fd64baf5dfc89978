"""Special functions used by the closed-form discrepancy and its gradient.

The error function on the real line comes straight from libm.  The scalar
functions `erf_complex_real` and `re_erf_damped` evaluate the real part of
erf at complex arguments by a three-branch hybrid:

* a truncated Maclaurin series for ``|z| <= 3.5``,
* a pole-corrected midpoint rule for the Faddeeva function w(z) on the
  annulus ``3.5 < |z| < 6``,
* the Laplace continued fraction for w(z) when ``|z| >= 6``.

The array path `re_erf_damped_grid`, which the discrepancy kernels call,
runs on scipy's Faddeeva function ``scipy.special.wofz`` instead: one
closed-form expression broadcast over all its arguments, with a short
Taylor series near the imaginary axis, where the closed form cancels.

Both paths work with the scaled function w rather than erf itself, so no
intermediate exp(b^2) is ever formed; scalar values that genuinely exceed
the double range come back as +/-inf.

All functions are pure and hold no global state.
"""

import cmath
import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Maclaurin region |z|^2 <= this bound.
_SERIES_R2 = 12.25
# Continued-fraction region |z|^2 >= this bound.
_CF_R2 = 36.0
_CF_TERMS = 40

# Near-axis region of the array path, |a| <= this bound and 2|ab| <= 1,
# where its Taylor series replaces the cancelling wofz closed form.
_NEAR_AXIS_A = 0.125
_NEAR_AXIS_TERMS = 24

# Midpoint rule for w(z) = (i/pi) * int exp(-t^2)/(z-t) dt on the annulus:
# step, truncation, and precomputed (t^2, exp(-t^2)) node pairs.
_MID_H = 0.4
_MID_NODES = tuple(
    (((k + 0.5) * _MID_H) ** 2, math.exp(-(((k + 0.5) * _MID_H) ** 2)))
    for k in range(int(12.0 / _MID_H))
)


def erf_real(x):
    """Error function of a real argument (absolute error below 1e-15)."""
    if not math.isfinite(x):
        raise ValueError(f"erf_real requires a finite argument, got {x!r}")
    return math.erf(x)


def _erf_series(z):
    """Maclaurin series of erf(z); reliable for |z| <= 3.5."""
    zz = z * z
    r2 = abs(zz)
    term = z
    total = z
    for n in range(1, 201):
        term *= -zz / n
        contrib = term / (2 * n + 1)
        total += contrib
        if n > r2 and abs(contrib) <= 1e-18 * abs(total) + 1e-300:
            break
    return (2.0 / _SQRT_PI) * total


def _wofz_cf(z):
    """Laplace continued fraction for w(z); accurate for |z| >= 6, Im z >= 0."""
    t = z
    for k in range(_CF_TERMS, 0, -1):
        t = z - (0.5 * k) / t
    return 1j / (_SQRT_PI * t)


def _wofz_mid(z):
    """Pole-corrected midpoint rule for w(z); Im z >= 0, |z| < 6."""
    zz = z * z
    acc = 0j
    for t2, e in _MID_NODES:
        acc += e / (zz - t2)
    total = (2j * _MID_H / math.pi) * z * acc
    total += 2.0 * cmath.exp(-zz) / (1.0 + cmath.exp(-2j * math.pi * z / _MID_H))
    return total


def _wofz_upper(z):
    # Faddeeva function for Im z >= 0 only.
    if z.real * z.real + z.imag * z.imag >= _CF_R2:
        return _wofz_cf(z)
    return _wofz_mid(z)


def erf_complex_real(a, b):
    """Real part of erf(a + i*b).

    Relative error is below 1e-10 for |a|, |b| <= 30 away from the zero
    crossing at a = 0 (the function is odd in ``a``; tiny |a| limits any
    fixed-precision evaluation).  When the true value exceeds the double
    range the signed infinity is returned; no intermediate exp(b^2) is
    formed, so representable results never overflow spuriously.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"erf_complex_real requires finite arguments, got ({a!r}, {b!r})")
    if b == 0.0:
        return math.erf(a)
    if a == 0.0:
        # erf(ib) is purely imaginary.
        return 0.0
    sgn = 1.0 if a > 0 else -1.0
    aa, bb = abs(a), abs(b)
    if aa * aa + bb * bb <= _SERIES_R2:
        return sgn * _erf_series(complex(aa, bb)).real
    # erf(z) = 1 - exp(-z^2) w(iz) with z = aa + i*bb, so
    # Re erf = 1 - exp(bb^2-aa^2) * (cos(2ab) Re w + sin(2ab) Im w).
    w = _wofz_upper(complex(-bb, aa))
    inner = math.cos(2.0 * aa * bb) * w.real + math.sin(2.0 * aa * bb) * w.imag
    if inner == 0.0:
        return sgn
    log_mag = (bb - aa) * (bb + aa) + math.log(abs(inner))
    if log_mag > 709.0:
        return sgn * (-math.inf if inner > 0 else math.inf)
    if log_mag < -745.0:
        return sgn
    return sgn * (1.0 - math.copysign(math.exp(log_mag), inner))


def re_erf_damped(a, b):
    """exp(-b^2) * Re(erf(a + i*b)), computed without forming exp(b^2).

    This is the combination the Gaussian discrepancy terms need: the
    Gaussian prefactor exactly cancels the growth of Re erf along the
    imaginary direction, so the product stays bounded for every finite
    frequency.  Near the imaginary axis it uses the same series as
    `re_erf_damped_grid`, so tiny |a| keeps full relative accuracy.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"re_erf_damped requires finite arguments, got ({a!r}, {b!r})")
    if b == 0.0:
        return math.erf(a)
    if a == 0.0:
        return 0.0
    sgn = 1.0 if a > 0 else -1.0
    aa, bb = abs(a), abs(b)
    if aa <= _NEAR_AXIS_A and 2.0 * aa * bb <= 1.0:
        return sgn * float(_damped_series(aa, bb))
    if aa * aa + bb * bb <= _SERIES_R2:
        return sgn * math.exp(-bb * bb) * _erf_series(complex(aa, bb)).real
    w = _wofz_upper(complex(-bb, aa))
    inner = math.cos(2.0 * aa * bb) * w.real + math.sin(2.0 * aa * bb) * w.imag
    return sgn * (math.exp(-bb * bb) - math.exp(-aa * aa) * inner)


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
    """`re_erf_damped` evaluated elementwise over broadcast arrays ``a`` and ``b``.

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


# Coefficients of the Acklam rational approximation to the standard normal
# quantile (relative error ~1.15e-9 before refinement).
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_P_LOW = 0.02425


def _probit_initial(u):
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if u < _ACK_P_LOW:
        q = math.sqrt(-2.0 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if u > 1.0 - _ACK_P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def _probit(u):
    """Standard normal quantile: rational start plus one Halley step.

    The refinement evaluates the CDF residual through erfc on the side
    where it is a small number (upper tail via 1-u, which is exact for
    u >= 1/2), so the step stays accurate deep into both tails and the
    result is machine precision independently of the rational
    coefficients.
    """
    x = _probit_initial(u)
    if u >= 0.5:
        # (1-u) is exact for u in [1/2, 1], so this is Phi(x) - u without
        # the near-1 cancellation.
        err = (1.0 - u) - 0.5 * math.erfc(x / _SQRT_2)
    else:
        err = 0.5 * math.erfc(-x / _SQRT_2) - u
    r = err * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - r / (1.0 + 0.5 * x * r)


def normal_quantile(u, sigma):
    """Quantile of the zero-mean normal density with standard deviation 1/sigma.

    ``sigma`` is the Gaussian kernel bandwidth; the matching frequency
    density has variance sigma**-2, so the result is probit(u)/sigma.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"normal_quantile requires 0 < u < 1, got {u!r} (unclamped cube point?)")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError(f"normal_quantile requires sigma > 0, got {sigma!r}")
    return _probit(u) / sigma


def cauchy_quantile(u, gamma):
    """Quantile of the Cauchy density with scale gamma."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"cauchy_quantile requires 0 < u < 1, got {u!r} (unclamped cube point?)")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"cauchy_quantile requires gamma > 0, got {gamma!r}")
    return gamma * math.tan(math.pi * (u - 0.5))


def probit_array(u):
    """Vectorized standard normal quantile (same algorithm as `_probit`)."""
    from scipy.special import erfc

    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("probit_array requires all entries in the open interval (0, 1)")
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    x = np.empty_like(u)

    low = u < _ACK_P_LOW
    high = u > 1.0 - _ACK_P_LOW
    mid = ~(low | high)

    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        x[low] = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                 ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        x[high] = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                   ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        x[mid] = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
                 (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)

    err = np.where(u >= 0.5,
                   (1.0 - u) - 0.5 * erfc(x / _SQRT_2),
                   0.5 * erfc(-x / _SQRT_2) - u)
    r = err * _SQRT_2PI * np.exp(0.5 * x * x)
    return x - r / (1.0 + 0.5 * x * r)
