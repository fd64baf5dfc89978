import math

import numpy as np
import pytest

from qmcrff.densities import FrequencySet, ProductDensity, transform
import qmcrff.discrepancy as discrepancy_module
from qmcrff.discrepancy import (
    Box,
    BoxObjective,
    _sinc_factor,
    assemble_H_v,
    average_case_mc_check,
    box_discrepancy_gaussian,
    expected_mc_discrepancy,
    sinc_gram,
    weighted_discrepancy,
)
from qmcrff.sequences import halton, mc_uniform

from oracles import (
    box_discrepancy_quadrature,
    cross_slope_reference,
    sinc_kernel,
    sinc_reference,
)

# Frozen from a 60-digit oracle evaluated before the implementation:
# single zero frequency, d = 1, b = sigma = 1:
#   1/pi - (2/sqrt(2 pi)) erf(1/sqrt(2)) + erf(1)/(2 sqrt(pi))
D2_SINGLE_ZERO = 0.01132398530009250346
# Expected MC discrepancy, s = 1, d = 1, b = sigma = 1:
#   1/pi - erf(1)/(2 sqrt(pi))
EXPECTED_MC_SINGLE = 0.08058838146895885681


def _gaussian_setup(s=8, d=2, sigma=1.0, b=1.0, seed=0):
    p = ProductDensity.gaussian(sigma, d=d)
    box = Box(b=[b] * d)
    rng = np.random.default_rng(seed)
    S = FrequencySet(points=rng.normal(0.0, 1.0 / sigma, size=(s, d)))
    return S, p, box


def _cauchy_setup(s=8, d=2, sigma=1.0, b=1.0, seed=0):
    p = ProductDensity.cauchy(sigma, d=d)
    box = Box(b=[b] * d)
    rng = np.random.default_rng(seed)
    S = FrequencySet(points=rng.standard_cauchy(size=(s, d)) / sigma)
    return S, p, box


def oracle_nodes(S, box):
    """Gauss-Legendre nodes that resolve cos(w beta) over [0, b_j] for every
    frequency: well above max |w_lj| b_j / 2 oscillations per dimension."""
    return 64 + int(np.max(np.abs(S.points) * box.b, initial=0.0))


class TestBox:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Box(b=[1.0, 0.0])

    def test_scaled(self):
        assert Box(b=[2.0, 4.0]).scaled(0.5).b.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            Box(b=[1.0]).scaled(0.0)


class TestSincKernel:
    def test_diagonal_convention(self):
        box = Box(b=[2.0, 3.0])
        u = np.array([0.7, -1.1])
        assert sinc_kernel(box, u, u) == pytest.approx(6.0 / math.pi ** 2, rel=1e-15)

    def test_symmetry(self):
        box = Box(b=[1.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            assert sinc_kernel(box, u, v) == sinc_kernel(box, v, u)

    def test_sine_zero(self):
        box = Box(b=[math.pi])
        assert sinc_kernel(box, [1.0], [0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_series_branch_continuity(self):
        # _sinc_factor switches from the series to sine and cosine at
        # |b t| = _NEAR_LAG; on both sides factor and slope match mpmath,
        # the slope to 8 eps of its scale b^2/pi.
        near = discrepancy_module._NEAR_LAG
        eps = np.finfo(float).eps
        z = np.array([0.99 * near, np.nextafter(near, 0.0), near,
                      np.nextafter(near, 1.0), 1.01 * near])
        for b in (0.5, 1.0, 3.0):
            for sign in (1.0, -1.0):
                t = sign * z / b
                factor, slope = _sinc_factor(b, t, slope=True)
                assert (np.abs(b * t) < near).any() and (np.abs(b * t) >= near).any()
                for tk, fk, dk in zip(t, factor, slope):
                    ref_f, ref_d = sinc_reference(b, tk)
                    assert fk == pytest.approx(ref_f, rel=4.0 * eps, abs=0.0)
                    assert abs(dk - ref_d) <= 8.0 * eps * b * b / np.pi

    def test_value_sweep_just_above_its_cutoff_matches_mpmath(self):
        # The value-only sweep uses angle addition from |b t| =
        # _NEAR_LAG_VALUE up: sin(b t) is off by about eps absolute there,
        # so the factor is bounded relative to eps / |b t| (measured at
        # most 1.04 eps / |b t|, 104 eps at the cutoff).  Entries below the
        # cutoff come from the series, which the tests above cover.
        cut = discrepancy_module._NEAR_LAG_VALUE
        assert cut < discrepancy_module._NEAR_LAG
        eps = np.finfo(float).eps
        rng = np.random.default_rng(70)
        z = np.concatenate([[np.nextafter(cut, 1.0), 1.001 * cut, 1.1 * cut],
                            np.geomspace(cut, 0.3, 25)[1:]])
        checked = 0
        for b in (0.3, 1.0, 2.7, 40.0):
            for reach in (0.5, 300.0):
                base = rng.uniform(-reach, reach, z.size) / b
                W = np.concatenate([base, base + rng.choice([-1.0, 1.0], z.size) * z / b])
                for r0, r1, f, df in discrepancy_module._pair_blocks(W[:, None], np.array([b]),
                                                                     slope=False):
                    assert df is None
                    t = W[r0:r1, None] - W[None, r0:]
                    bt = np.abs(b * t)
                    for i, k in zip(*np.nonzero((bt >= cut) & (bt <= 0.3))):
                        ref, _ = sinc_reference(b, t[i, k])
                        assert abs(f[0, i, k] - ref) <= 4.0 * eps / bt[i, k] * abs(ref)
                        checked += 1
        assert checked >= 8 * z.size

    def test_gram_matches_scalar(self):
        box = Box(b=[1.5, 0.5])
        W = np.random.default_rng(1).normal(size=(5, 2))
        H = sinc_gram(box, W)
        for i in range(5):
            for j in range(5):
                assert H[i, j] == pytest.approx(sinc_kernel(box, W[i], W[j]), rel=1e-14)


class TestGaussianClosedForm:
    def test_frozen_single_point(self):
        p = ProductDensity.gaussian(1.0, d=1)
        box = Box(b=[1.0])
        rep = box_discrepancy_gaussian(FrequencySet(points=[[0.0]]), p, box)
        assert rep.d_squared == pytest.approx(D2_SINGLE_ZERO, rel=1e-12)
        assert rep.term1 == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert rep.term2 == pytest.approx(
            -2.0 / math.sqrt(2.0 * math.pi) * math.erf(1.0 / math.sqrt(2.0)), rel=1e-13)
        assert rep.term3 == pytest.approx(
            math.erf(1.0) / (2.0 * math.sqrt(math.pi)), rel=1e-15)

    def test_terms_recombine(self):
        S, p, box = _gaussian_setup(s=6, d=2, seed=3)
        rep = box_discrepancy_gaussian(S, p, box)
        assert rep.d_squared == rep.term1 + rep.term2 + rep.term3

    def test_nonnegative(self):
        for seed in range(10):
            S, p, box = _gaussian_setup(s=5, d=2, sigma=1.3, b=2.0, seed=seed)
            assert box_discrepancy_gaussian(S, p, box).d_squared >= -1e-10

    def test_row_permutation_invariance(self):
        S, p, box = _gaussian_setup(s=7, d=2, seed=4)
        perm = np.random.default_rng(5).permutation(7)
        S2 = FrequencySet(points=S.points[perm])
        a = box_discrepancy_gaussian(S, p, box).d_squared
        c = box_discrepancy_gaussian(S2, p, box).d_squared
        assert a == pytest.approx(c, rel=1e-12)

    def test_sign_flip_invariance(self):
        S, p, box = _gaussian_setup(s=5, d=3, seed=6)
        a = box_discrepancy_gaussian(S, p, box).d_squared
        c = box_discrepancy_gaussian(FrequencySet(points=-S.points), p, box).d_squared
        assert a == pytest.approx(c, rel=1e-12)

    def test_duplicate_point_continuity(self):
        # exact duplicates ride through the sinc diagonal convention and
        # still agree with the quadrature oracle
        S, p, box = _gaussian_setup(s=5, d=2, seed=7)
        W = np.vstack([S.points, S.points[2]])
        S2 = FrequencySet(points=W)
        closed = box_discrepancy_gaussian(S2, p, box).d_squared
        quad = box_discrepancy_quadrature(S2, p, box)
        assert closed == pytest.approx(quad, rel=1e-8)


class TestCauchyClosedForm:
    def test_matches_quadrature(self):
        rng = np.random.default_rng(19)
        for _ in range(12):
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 9))
            sigma = rng.uniform(0.3, 4.0, d)
            p = ProductDensity.cauchy(sigma)
            box = Box(b=rng.uniform(0.5, 10.0, d))
            S = FrequencySet(points=rng.standard_cauchy(size=(s, d)) / sigma)
            closed = box_discrepancy_gaussian(S, p, box).d_squared
            quad = box_discrepancy_quadrature(S, p, box, nodes=oracle_nodes(S, box))
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_halton_frozen(self):
        # Halton s=256, d=1, sigma=0.3, b=2: max |w| b = 543, which 200
        # quadrature nodes do not resolve (they give 7.18e-5); 400 and more
        # agree with the closed form to 1e-10.
        p = ProductDensity.cauchy(0.3, d=1)
        box = Box(b=[2.0])
        S = transform(halton(256, 1), p)
        closed = box_discrepancy_gaussian(S, p, box).d_squared
        assert closed == pytest.approx(1.5351359e-4, rel=1e-6)
        assert closed == pytest.approx(
            box_discrepancy_quadrature(S, p, box, nodes=oracle_nodes(S, box)), rel=1e-9)

    @pytest.mark.parametrize("sigma, b", [(0.3, 0.5), (1.0, 2.0), (4.0, 10.0)])
    def test_factors_and_slopes_against_quadrature(self, sigma, b):
        # g(x) = (1/pi) int_0^b e^{-beta/sigma} cos(x beta) dbeta and
        # g'(x) = -(1/pi) int_0^b beta e^{-beta/sigma} sin(x beta) dbeta.
        # Double-precision quadrature of the oscillating integrands is good
        # to about 1e-9 here; the 50-digit complex form
        # Re[(1 - e^{-(a - ix) b}) / (a - ix)] / pi, a = 1/sigma, and its
        # derivative check the real-arithmetic rewriting to rounding.
        import mpmath

        p = ProductDensity.cauchy(sigma, d=1)
        box = Box(b=[b])
        x = np.array([[0.0], [1e-9], [0.37], [-2.5], [13.0], [-150.0]])
        objective = BoxObjective(p, box)
        factors, slopes, const = objective.factors, objective.slopes, objective.norm_sq
        G = factors(x)
        dG = slopes(x, G)
        nodes, weights = np.polynomial.legendre.leggauss(1200)
        beta = 0.5 * b * (nodes + 1.0)
        wq = 0.5 * b * weights * np.exp(-beta / sigma) / math.pi
        assert G[:, 0] == pytest.approx(np.cos(x * beta) @ wq, rel=1e-8, abs=1e-15)
        assert dG[:, 0] == pytest.approx(-(beta * np.sin(x * beta)) @ wq, rel=1e-8, abs=1e-15)
        assert const == pytest.approx(float(np.exp(-beta / sigma) @ wq), rel=1e-12)

        with mpmath.workdps(50):
            a = 1 / mpmath.mpf(sigma)

            def g(w):
                z = a - 1j * w
                return mpmath.re((1 - mpmath.exp(-z * b)) / z) / mpmath.pi

            for xv, gv, dv in zip(x[:, 0], G[:, 0], dG[:, 0]):
                assert gv == pytest.approx(float(g(mpmath.mpf(xv))), rel=1e-13)
                assert dv == pytest.approx(float(mpmath.diff(g, mpmath.mpf(xv))),
                                           rel=1e-12, abs=1e-20)

    def test_degenerate_half_width_does_not_cancel(self):
        # A constant feature gets b = 1e-12; then g(x) = b/pi (1 - b/(2 sigma)
        # + O(b^2)) and the constant is b/pi (1 - b/sigma + O(b^2)).
        b = 1e-12
        p = ProductDensity.cauchy(1.0, d=1)
        objective = BoxObjective(p, Box(b=[b]))
        factors, const = objective.factors, objective.norm_sq
        G = factors(np.array([[0.0], [0.5], [3.0], [-40.0]]))
        assert G == pytest.approx(b / math.pi, rel=1e-11)
        assert const == pytest.approx(b / math.pi, rel=1e-11)

    def test_nonnegative_and_terms_recombine(self):
        for seed in range(10):
            S, p, box = _cauchy_setup(s=6, d=2, sigma=0.7, b=3.0, seed=seed)
            rep = box_discrepancy_gaussian(S, p, box)
            assert rep.d_squared == rep.term1 + rep.term2 + rep.term3
            assert rep.d_squared >= -1e-10


class TestCrossSlopesNearZeroWidth:
    """The slopes g'(x) against 50-digit mpmath where the closed forms
    subtract two terms of order b whose difference is O(b^3)."""

    @staticmethod
    def _relative_errors(kind, sigma, b, xs):
        p = getattr(ProductDensity, kind)(sigma, d=1)
        objective = BoxObjective(p, Box(b=[b]))
        factors, slopes = objective.factors, objective.slopes
        W = np.array(xs, dtype=float)[:, None]
        got = slopes(W, factors(W))[:, 0]
        ref = np.array([cross_slope_reference(kind, sigma, b, x) for x in xs])
        return np.abs(got - ref) / np.abs(ref)

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("b", [1e-3, 1e-6, 1e-12])
    def test_small_half_widths(self, kind, b):
        # At b = 1e-6 the closed forms were off by 6.9e-4 (Gaussian) and
        # 2.8e-4 (Cauchy); at b = 1e-12 the Gaussian slope was 0.
        for sigma in (0.5, 1.0, 3.0):
            assert self._relative_errors(kind, sigma, b, [0.7, -2.5, 1e-7]).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_both_sides_of_the_cutoff(self, kind):
        # The series below b max(|x|, 1/sigma) = cutoff, the closed form above.
        cutoff = discrepancy_module._SLOPE_CUTOFF
        for sigma in (0.5, 3.0):
            for side, rtol in ((0.99, 1e-15), (1.01, 2e-10)):
                t = side * cutoff
                # b / sigma sets the distance, or b |x| does with b / sigma = t / 3.
                at_width = self._relative_errors(kind, sigma, t * sigma, [0.3 / sigma, -0.9 / sigma])
                b = t * sigma / 3.0
                at_lag = self._relative_errors(kind, sigma, b, [t / b, -t / b])
                assert max(at_width.max(), at_lag.max()) <= rtol


class TestQuadratureOracle:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            s = int(rng.integers(1, 9))
            sigma = rng.uniform(0.5, 2.0, d)
            b = rng.uniform(0.5, 4.0, d)
            p = ProductDensity.gaussian(sigma)
            box = Box(b=b)
            S = FrequencySet(points=rng.normal(0, 1.0 / sigma, size=(s, d)))
            closed = box_discrepancy_gaussian(S, p, box).d_squared
            quad = box_discrepancy_quadrature(S, p, box)
            assert closed == pytest.approx(quad, rel=1e-6)

    def test_empty_set_gives_mean_norm(self):
        p = ProductDensity.gaussian([1.0, 2.0])
        box = Box(b=[1.0, 1.5])
        v = box_discrepancy_quadrature(FrequencySet(points=np.empty((0, 2))), p, box)
        assert v > 0.0
        assert v == pytest.approx(BoxObjective(p, box).norm_sq, rel=1e-9)

    def test_rejects_high_dimension_and_few_nodes(self):
        p = ProductDensity.gaussian(1.0, d=4)
        S = FrequencySet(points=np.zeros((1, 4)))
        with pytest.raises(ValueError):
            box_discrepancy_quadrature(S, p, Box(b=[1.0] * 4))
        p1 = ProductDensity.gaussian(1.0, d=1)
        with pytest.raises(ValueError):
            box_discrepancy_quadrature(FrequencySet(points=[[0.0]]), p1, Box(b=[1.0]),
                                       nodes=16)

    def test_default_nodes_follow_the_largest_frequency(self):
        # max |w| b = 543 on Halton s=256, d=1, sigma=0.3, b=2; a fixed 200
        # nodes gave 7.18e-5 here.
        p = ProductDensity.cauchy(0.3, d=1)
        box = Box(b=[2.0])
        S = transform(halton(256, 1), p)
        assert box_discrepancy_quadrature(S, p, box) == pytest.approx(
            box_discrepancy_gaussian(S, p, box).d_squared, rel=1e-6)

    def test_refuses_a_node_count_it_cannot_afford(self):
        # A clamped Cauchy frequency: |w| ~ 1.4e15 / sigma.
        p = ProductDensity.cauchy(0.3, d=1)
        box = Box(b=[2.0])
        S = FrequencySet(points=[[0.1], [1.4e15 / 0.3]])
        with pytest.raises(ValueError, match=r"would need \d+ nodes"):
            box_discrepancy_quadrature(S, p, box)
        assert math.isfinite(box_discrepancy_quadrature(S, p, box, nodes=64))

    def test_cauchy_against_mc_oracle(self):
        # Direct Monte Carlo estimate of the double and single integrals of
        # the three-term expression, d = 1 Cauchy density.
        sigma = 1.5
        p = ProductDensity.cauchy(sigma, d=1)
        box = Box(b=[2.0])
        W = np.array([[0.3], [-1.2], [0.8]])
        S = FrequencySet(points=W)
        quad = box_discrepancy_quadrature(S, p, box, nodes=400)

        def kernel(lag):  # d = 1 sinc-kernel values by the plain sine
            return box.b[0] / np.pi * np.sinc(box.b[0] * lag / np.pi)

        rng = np.random.default_rng(9)
        gamma = 1.0 / sigma
        om = rng.standard_cauchy(200_000) * gamma
        ph = rng.standard_cauchy(200_000) * gamma
        term1_samples = kernel(om - ph)
        s = W.shape[0]
        cross = kernel(W - om[None, :100_000])    # (s, n) kernel values
        term2_samples = -2.0 / s * cross.sum(axis=0)
        term3 = float(kernel(W - W.T).sum()) / (s * s)
        mc = term1_samples.mean() + term2_samples.mean() + term3
        se = math.sqrt(term1_samples.var(ddof=1) / term1_samples.size
                       + term2_samples.var(ddof=1) / term2_samples.size)
        assert abs(quad - mc) <= 3 * se


class TestExpectedMcDiscrepancy:
    def test_frozen_single(self):
        p = ProductDensity.gaussian(1.0, d=1)
        got = expected_mc_discrepancy(1, p, Box(b=[1.0]))
        assert got == pytest.approx(EXPECTED_MC_SINGLE, rel=1e-13)

    def test_inverse_in_s(self):
        p = ProductDensity.gaussian([1.0, 0.7])
        box = Box(b=[1.0, 2.0])
        assert expected_mc_discrepancy(16, p, box) == pytest.approx(
            expected_mc_discrepancy(8, p, box) / 2.0, rel=1e-14)

    def test_matches_empirical_mean(self):
        p = ProductDensity.gaussian(1.0, d=1)
        box = Box(b=[1.0])
        s = 16
        vals = []
        for seed in range(200):
            freqs = transform(mc_uniform(s, 1, seed=seed), p)
            vals.append(box_discrepancy_gaussian(freqs, p, box).d_squared)
        vals = np.asarray(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - expected_mc_discrepancy(s, p, box)) <= 3 * se

    def test_cauchy_matches_empirical_mean(self):
        p = ProductDensity.cauchy([1.0, 0.5])
        box = Box(b=[1.0, 2.0])
        s = 16
        vals = np.array([box_discrepancy_gaussian(
            transform(mc_uniform(s, 2, seed=seed), p), p, box).d_squared for seed in range(300)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - expected_mc_discrepancy(s, p, box)) <= 3 * se


class TestAssembleHv:
    def test_diagonal_value(self):
        S, p, box = _gaussian_setup(s=6, d=2, b=1.5, seed=10)
        H, _ = assemble_H_v(S, p, box)
        assert np.allclose(np.diag(H), np.prod(box.b) / math.pi ** 2)

    def test_psd(self):
        for seed in range(5):
            S, p, box = _gaussian_setup(s=10, d=2, seed=seed)
            H, _ = assemble_H_v(S, p, box)
            assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_uniform_weights_reproduce_closed_form(self):
        S, p, box = _gaussian_setup(s=9, d=2, seed=11)
        H, v = assemble_H_v(S, p, box)
        xi = np.full(S.s, 1.0 / S.s)
        quad_form = BoxObjective(p, box).norm_sq - 2.0 * v @ xi + xi @ H @ xi
        assert quad_form == pytest.approx(
            box_discrepancy_gaussian(S, p, box).d_squared, abs=1e-12)

    def test_cauchy_uniform_weights_reproduce_closed_form(self):
        S, p, box = _cauchy_setup(s=9, d=2, seed=11)
        xi = np.full(S.s, 1.0 / S.s)
        assert weighted_discrepancy(S, xi, p, box) == pytest.approx(
            box_discrepancy_gaussian(S, p, box).d_squared, abs=1e-12)


class TestWeightedDiscrepancy:
    def test_uniform_reduction(self):
        S, p, box = _gaussian_setup(s=7, d=2, seed=12)
        xi = np.full(S.s, 1.0 / S.s)
        assert weighted_discrepancy(S, xi, p, box) == pytest.approx(
            box_discrepancy_gaussian(S, p, box).d_squared, abs=1e-12)

    def test_zero_weights_leave_mean_norm(self):
        S, p, box = _gaussian_setup(s=4, d=2, seed=13)
        assert weighted_discrepancy(S, np.zeros(4), p, box) == pytest.approx(
            BoxObjective(p, box).norm_sq, rel=1e-14)

    def test_rejects_negative_weights(self):
        S, p, box = _gaussian_setup(s=3, d=1, seed=14)
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_discrepancy(S, [0.5, -0.01, 0.5], p, box)


class TestAverageCase:
    def test_single_zero_frequency_matches_quadrature(self):
        # epsilon(u)^2 = |exp(-u^2/2) - 1|^2 for S = {0}; compare the sample
        # mean against Gauss-Legendre quadrature of that expression.
        p = ProductDensity.gaussian(1.0, d=1)
        box = Box(b=[1.0])
        S = FrequencySet(points=[[0.0]])
        rep = average_case_mc_check(S, p, box, n_samples=40_000, seed=15)
        x, w = np.polynomial.legendre.leggauss(60)
        integral = 0.5 * float(w @ (np.exp(-x ** 2 / 2.0) - 1.0) ** 2)
        assert abs(rep.empirical - integral) <= 3 * rep.stderr
        assert rep.predicted == pytest.approx(
            math.pi * box_discrepancy_gaussian(S, p, box).d_squared, rel=1e-13)

    def test_prediction_scales_with_discrepancy(self):
        S, p, box = _gaussian_setup(s=6, d=2, seed=16)
        S_bad = FrequencySet(points=3.0 * S.points)
        r1 = average_case_mc_check(S, p, box, n_samples=1000, seed=1)
        r2 = average_case_mc_check(S_bad, p, box, n_samples=1000, seed=1)
        d1 = box_discrepancy_gaussian(S, p, box).d_squared
        d2 = box_discrepancy_gaussian(S_bad, p, box).d_squared
        assert r2.predicted / r1.predicted == pytest.approx(d2 / d1, rel=1e-12)

    def test_cauchy_identity_within_three_standard_errors(self):
        p = ProductDensity.cauchy([1.0, 2.0])
        box = Box(b=[1.0, 1.5])
        S = transform(halton(16, 2), p)
        rep = average_case_mc_check(S, p, box, n_samples=200_000, seed=21)
        assert abs(rep.empirical - rep.predicted) <= 3 * rep.stderr
        assert rep.predicted == pytest.approx(
            math.pi ** 2 / 1.5 * box_discrepancy_gaussian(S, p, box).d_squared, rel=1e-13)

    def test_requires_enough_samples(self):
        S, p, box = _gaussian_setup(s=2, d=1, seed=17)
        with pytest.raises(ValueError):
            average_case_mc_check(S, p, box, n_samples=10, seed=0)

    def test_chunking_is_invisible(self, monkeypatch):
        S, p, box = _gaussian_setup(s=4, d=2, seed=18)
        monkeypatch.setattr(discrepancy_module, "_MC_CHUNK", 512)
        a = average_case_mc_check(S, p, box, n_samples=5000, seed=3)
        monkeypatch.setattr(discrepancy_module, "_MC_CHUNK", 100000)
        c = average_case_mc_check(S, p, box, n_samples=5000, seed=3)
        assert a.empirical == pytest.approx(c.empirical, rel=1e-12)
