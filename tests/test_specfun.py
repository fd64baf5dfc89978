import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmcrff.densities import ProductDensity, transform
from qmcrff.sequences import UnitPointSet
from qmcrff.specfun import re_erf_damped_grid

# High-precision reference values, frozen from an mpmath oracle (50 digits)
# evaluated before the implementation existed.
ERF_ONE = 0.84270079294971486934
RE_ERF_REFS = [
    # (a, b, Re erf(a + i b)); spread over |z| <= 30
    (0.5, 0.5, 0.64261291485482052832),
    (1.0, 1.0, 1.3161512816979476449),
    (2.0, 2.0, 1.151310866398069024),
    (3.0, 1.5, 1.0001916446378630324),
    (0.25, 3.4, 17083.128553499548191),
    (4.0, 3.0, 0.99991066178539168236),
    (0.5, 4.8, -943941704.59931668796),
    (3.0, 5.0, -797502.30794284014569),
    (6.0, 0.5, 0.99999999999999997302),
    (12.0, 11.5, 0.99999974435261405375),
    (5.0, 25.0, -8.3466625391938112337e258),
    (0.001, 5.0, 81247447.118625226402),
]
# Re erf(a + i b) next to the imaginary axis, frozen from a 60-digit mpmath
# oracle: the wofz closed form cancels here, so the grid's series answers.
NEAR_AXIS_REFS = [
    (1e-8, 5.0, 812.48828341115559642),
    (1e-12, 4.0, 1.0026901987849344829e-5),
    (1e-15, 5.0, 8.1248828341115702379e-5),
]


def _erf(a):
    """erf(a): the damped grid on the real axis, where the damping is 1."""
    return float(re_erf_damped_grid(a, 0.0))


def _re_erf(a, b):
    """Re erf(a + i b), undamped from the grid's scalar value."""
    return float(re_erf_damped_grid(a, b)) * math.exp(b * b)


class TestErfReal:
    def test_at_zero(self):
        assert _erf(0.0) == 0.0

    def test_frozen_value(self):
        assert _erf(1.0) == pytest.approx(ERF_ONE, abs=1e-14)

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_odd(self, x):
        assert _erf(x) == -_erf(-x)

    def test_monotone_and_bounded_on_grid(self):
        xs = np.linspace(-6.0, 6.0, 10_000)
        vals = re_erf_damped_grid(xs, 0.0)
        assert np.all(np.diff(vals) >= 0.0)
        # erf(+-6) rounds to +-1.0 in doubles; strictness holds away from
        # the saturated edge.
        assert np.all(np.abs(vals) <= 1.0)
        interior = np.abs(xs) <= 5.8
        assert np.all(np.abs(vals[interior]) < 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            re_erf_damped_grid(math.inf, 0.0)


class TestErfComplexReal:
    def test_real_axis_matches_erf(self):
        for a in [-3.0, -0.2, 0.7, 4.5]:
            assert _re_erf(a, 0.0) == pytest.approx(math.erf(a), rel=1e-15, abs=0.0)

    def test_imaginary_axis_is_zero(self):
        for b in [0.1, 2.0, 25.0]:
            assert _re_erf(0.0, b) == 0.0

    @pytest.mark.parametrize("a,b,ref", RE_ERF_REFS)
    def test_against_high_precision_oracle(self, a, b, ref):
        assert _re_erf(a, b) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a,b,ref", NEAR_AXIS_REFS)
    def test_near_imaginary_axis_against_high_precision_oracle(self, a, b, ref):
        assert _re_erf(a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_even_in_b_exactly(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-10, 10, 1000)
        b = rng.uniform(0, 30, 1000)
        assert np.array_equal(re_erf_damped_grid(a, b), re_erf_damped_grid(a, -b))

    def test_odd_in_a(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(0.001, 8, 200)
        b = rng.uniform(0, 6, 200)
        assert np.array_equal(re_erf_damped_grid(-a, b), -re_erf_damped_grid(a, b))

    def test_large_arguments_stay_finite_when_representable(self):
        # |z| large but the value is ~1.0: must not overflow internally.
        assert _re_erf(20.0, 10.0) == pytest.approx(1.0, rel=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            re_erf_damped_grid(math.nan, 1.0)


class TestReErfDamped:
    def test_matches_definition_in_safe_range(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        with mpmath.workdps(30):
            for _ in range(300):
                a = float(rng.uniform(-3, 3))
                b = float(rng.uniform(-3, 3))
                expect = float(mpmath.exp(-mpmath.mpf(b) ** 2)
                               * mpmath.re(mpmath.erf(mpmath.mpc(a, b))))
                assert float(re_erf_damped_grid(a, b)) == pytest.approx(
                    expect, rel=1e-12, abs=1e-300)

    def test_frozen_extreme_value(self):
        # exp(-900) * Re erf(0.5 + 30i): both factors out of double range,
        # their product is not.
        assert float(re_erf_damped_grid(0.5, 30.0)) == pytest.approx(
            -0.014512809993078623, rel=1e-10)

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(11)
        for a in [0.3, 1.2, 3.3, -2.0, 7.5]:
            b = np.concatenate([rng.uniform(-30, 30, 200),
                                [0.0, 1e-9, 3.49, 3.51, 5.99, 6.01]])
            grid = re_erf_damped_grid(a, b)
            scalar = np.array([float(re_erf_damped_grid(a, float(v))) for v in b])
            assert np.allclose(grid, scalar, rtol=5e-12, atol=1e-300)


# exp(-b^2) Re erf(a + i b), frozen from a 50-digit mpmath oracle: on the
# circles |z|^2 = 12.25 and 36 and just off them, at tiny |a| where the wofz
# closed form cancels, and at |b| up to 30.
GRID_SEAM_REFS = [
    (2.1, 2.8, -0.0015740413340438042213),
    (-2.8, 2.1, -0.012093860247081014388),
    (2.1, 2.79999, -0.0015740304810915278138),
    (2.1, 2.80001, -0.0015740521820866222005),
    (3.6, 4.8, 1.3524907361221505673e-7),
    (4.8, -3.6, 2.3525826434074495677e-6),
    (3.6, 4.79999, 1.3526212303593143332e-7),
    (3.6, 4.80001, 1.3523602350292144556e-7),
]
GRID_TINY_A_REFS = [
    (0.001, 0.0, 0.0011283787909692364034),
    (0.001, 0.5, 0.0011283786029061641285),
    (-0.001, 2.0, -0.001128375781962336761),
    (0.001, 5.0, 0.0011283599847550999054),
    (0.001, 30.0, 0.0011277018857296134141),
    (1e-12, 0.0, 1.1283791670955125512e-12),
    (1e-12, 2.0, 1.1283791670955125512e-12),
    (-1e-12, 4.5, -1.1283791670955125512e-12),
    (1e-12, 5.3, 1.1283791670955125512e-12),
    (1e-08, 1.0, 1.1283791670955124847e-8),
    (1e-08, -3.7, 1.1283791670955115301e-8),
    (1e-08, 6.0, 1.1283791670955098518e-8),
    (1e-08, 30.0, 1.1283791670954448571e-8),
    # either side of the near-axis series' edge, |a| = 1/8 and 2|ab| = 1
    (0.125, 3.99, 0.11826767859332498327),
    (0.125, 4.01, 0.11805722421493763137),
    (0.1251, 2.0, 0.1346637146320424617),
]
GRID_LARGE_B_REFS = [
    (0.5, 30.0, -0.014512809993078621753),
    (3.0, -30.0, -1.7042017914244204165e-6),
    (12.0, 25.0, 2.7842982244143439712e-65),
    (0.25, 17.5, 0.019287045756243885961),
    (7.5, 29.0, 6.5568831068879341007e-27),
]


class TestReErfDampedGrid:
    @pytest.mark.parametrize("a,b,ref", GRID_SEAM_REFS + GRID_LARGE_B_REFS)
    def test_against_high_precision_oracle(self, a, b, ref):
        assert float(re_erf_damped_grid(a, b)) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a,b,ref", GRID_TINY_A_REFS)
    def test_tiny_a_against_high_precision_oracle(self, a, b, ref):
        # exp(-b^2) and the wofz term would cancel to about 1e-16/|a|
        # relative; the near-axis series keeps rounding-level accuracy.
        assert float(re_erf_damped_grid(a, b)) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_broadcasts_over_both_arguments(self):
        # The last two columns mix near-axis series entries into the call.
        a = np.array([[0.3, -1.2, 4.0, 1e-12, -1e-8]])
        b = np.array([[0.0], [2.5], [-17.0]])
        grid = re_erf_damped_grid(a, b)
        assert grid.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert grid[i, j] == pytest.approx(
                    float(re_erf_damped_grid(float(a[0, j]), float(b[i, 0]))),
                    rel=5e-12, abs=1e-300)

    def test_zero_a_gives_zero(self):
        assert np.all(re_erf_damped_grid(0.0, np.array([0.0, 1.0, 30.0])) == 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            re_erf_damped_grid(1.0, np.array([0.0, math.inf]))


def _quantile(u, density):
    """Quantiles of the one-dimensional ``density`` at ``u``, through `transform`."""
    pts = UnitPointSet(points=np.reshape(u, (-1, 1)), generator="file")
    return transform(pts, density).points[:, 0]


class TestNormalQuantile:
    """The normal quantile ndtri(u)/sigma, as `transform` computes it."""

    def test_median_is_zero(self):
        for sigma in [0.3, 1.0, 5.0]:
            assert _quantile(0.5, ProductDensity.gaussian(sigma, d=1))[0] == 0.0

    def test_symmetry(self):
        u = np.random.default_rng(3).uniform(0.01, 0.99, 200)
        density = ProductDensity.gaussian(1.3, d=1)
        assert _quantile(u, density) == pytest.approx(
            -_quantile(1.0 - u, density), rel=1e-12, abs=1e-14)

    def test_round_trip_against_forward_cdf_oracle(self):
        # Forward CDF as the independent oracle; the lower tail keeps u
        # exactly representable, the upper half follows by symmetry.
        x = np.linspace(-6.0, -1e-3, 500)
        u = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x]
        assert _quantile(u, ProductDensity.gaussian(1.0, d=1)) == pytest.approx(x, rel=1e-10)

    def test_round_trip_with_scale(self):
        # density std is 1/sigma, so x = probit(u)/sigma
        sigma = 2.5
        x = np.linspace(-6.0 / sigma, -1e-3, 200)
        u = [0.5 * math.erfc(-v * sigma / math.sqrt(2.0)) for v in x]
        assert _quantile(u, ProductDensity.gaussian(sigma, d=1)) == pytest.approx(x, rel=1e-10)

    def test_spec_point(self):
        u = 0.5 * math.erfc(-1.0 / math.sqrt(2.0))  # forward CDF at 1
        assert _quantile(u, ProductDensity.gaussian(1.0, d=1))[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_domain(self, u):
        # The guard sits on the point set: no u outside (0, 1) reaches the quantile.
        with pytest.raises(ValueError):
            _quantile(u, ProductDensity.gaussian(1.0, d=1))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            _quantile(0.3, ProductDensity.gaussian(0.0, d=1))

    def test_array_version_matches_scalar(self):
        # transform over a point set against one point at a time, out to the
        # clamp edges 2^-52 and 1 - 2^-52.
        u = np.array([2.0 ** -52, 1e-9, 0.25, 0.5, 0.77, 1 - 1e-9, 1 - 2.0 ** -52])
        density = ProductDensity.gaussian(1.7, d=1)
        ref = [_quantile(v, density)[0] for v in u]
        assert np.array_equal(_quantile(u, density), ref)


class TestCauchyQuantile:
    """The Cauchy quantile gamma tan(pi (u - 1/2)), as `transform` computes it
    for the scale gamma = 1/sigma."""

    def test_median(self):
        assert _quantile(0.5, ProductDensity.cauchy(1.0 / 3.0, d=1))[0] == 0.0

    def test_upper_quartile(self):
        assert _quantile(0.75, ProductDensity.cauchy(0.5, d=1))[0] == pytest.approx(
            2.0, rel=1e-14)

    def test_lower_quartile(self):
        assert _quantile(0.25, ProductDensity.cauchy(0.5, d=1))[0] == pytest.approx(
            -2.0, rel=1e-14)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            _quantile(1.0, ProductDensity.cauchy(1.0, d=1))
        with pytest.raises(ValueError):
            _quantile(0.5, ProductDensity.cauchy(-1.0, d=1))


@settings(max_examples=300)
@given(st.floats(min_value=1e-3, max_value=8, allow_nan=False),
       st.floats(min_value=0, max_value=6, allow_nan=False))
def test_erf_complex_pure_and_deterministic(a, b):
    assert float(re_erf_damped_grid(a, b)) == float(re_erf_damped_grid(a, b))
