"""The damped complex error function that the closed-form discrepancy and
its gradient need, as a thin layer over ``scipy.special``.

`re_erf_damped_grid` gives exp(-b^2) Re erf(a + ib) from scipy's Faddeeva
function ``wofz`` in one closed form broadcast over all its arguments, so
no intermediate exp(b^2) is ever formed.  Near the imaginary axis, where
that closed form cancels, a short Taylor series takes over.  It is pure
and holds no global state.
"""

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

# Near-axis region of the damped erf, |a| <= this bound and 2|ab| <= 1,
# where its Taylor series replaces the cancelling wofz closed form.
_NEAR_AXIS_A = 0.125
_NEAR_AXIS_TERMS = 24


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
