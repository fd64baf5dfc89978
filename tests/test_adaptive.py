import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmcrff.adaptive import (
    OptimizerOptions,
    discrepancy_gradient,
    nonlinear_cg,
    optimize_global,
    optimize_greedy,
    optimize_weights,
)
from qmcrff.densities import FrequencySet, ProductDensity, transform
import qmcrff.discrepancy as discrepancy_module
from qmcrff.discrepancy import (
    Box,
    BoxObjective,
    _sinc_factor,
    assemble_H_v,
    average_case_mc_check,
    box_discrepancy_gaussian,
    gaussian_discrepancy_terms,
    sinc_gram,
    weighted_discrepancy,
)
from qmcrff.featmap import WeightedFeatureMap
from qmcrff.sequences import halton

from oracles import sinc_reference


def _instance(s, d, seed, sigma_range=(0.5, 2.0), b_range=(0.5, 2.0)):
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(*sigma_range, d)
    b = rng.uniform(*b_range, d)
    p = ProductDensity.gaussian(sigma)
    box = Box(b=b)
    S = FrequencySet(points=rng.normal(0.0, 1.0 / sigma, size=(s, d)))
    return S, p, box


def _fd_gradient(S, p, box, h=1e-5):
    W = S.points
    out = np.zeros_like(W)
    for l in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[l, j] += h
            Wm[l, j] -= h
            out[l, j] = (sum(gaussian_discrepancy_terms(Wp, p, box))
                         - sum(gaussian_discrepancy_terms(Wm, p, box))) / (2.0 * h)
    return out


def _sincp(z):
    """sinc'(z), read off the slope of the unit-width sinc factor."""
    return np.pi * _sinc_factor(1.0, z, slope=True)[1]


class TestSincDerivative:
    def test_zero(self):
        assert _sincp(0.0) == 0.0

    def test_series_matches_exact_formula_at_cutoff(self):
        near = discrepancy_module._NEAR_LAG
        for z in [0.2, 0.99 * near, 1.01 * near, 0.3]:
            exact = np.cos(z) / z - np.sin(z) / z ** 2
            assert float(_sincp(z)) == pytest.approx(exact, rel=1e-6)

    def test_against_analytic(self):
        z = np.linspace(0.5, 10.0, 50)
        expect = np.cos(z) / z - np.sin(z) / z ** 2
        assert np.allclose(_sincp(z), expect, rtol=1e-14)


class TestSincSeries:
    def test_matches_mpmath_over_the_near_lags(self):
        near = discrepancy_module._NEAR_LAG
        eps = np.finfo(float).eps
        rng = np.random.default_rng(60)
        z = np.concatenate([rng.uniform(-near, near, 300),
                            [near, -near, 0.1, 1e-3, -1e-6, 1e-12, 1e-200]])
        for b in (0.3, 1.0, 2.7, 1e4):
            t = z / b
            factor, slope = discrepancy_module._sinc_series(b, t, slope=True)
            assert np.array_equal(discrepancy_module._sinc_series(b, t), factor)
            for tk, fk, dk in zip(t, factor, slope):
                ref_f, ref_d = sinc_reference(b, tk)
                assert fk == pytest.approx(ref_f, rel=4.0 * eps, abs=0.0)
                assert dk == pytest.approx(ref_d, rel=4.0 * eps, abs=0.0)

    def test_exact_at_zero_lag(self):
        for b in (0.3, 1.0, 2.7):
            factor, slope = discrepancy_module._sinc_series(b, np.zeros(3), slope=True)
            assert np.all(factor == b / np.pi)
            assert np.all(slope == 0.0)

    def test_sinc_factor_small_branches_use_the_series(self):
        b = np.array([0.5, 2.0, 3.0])
        t = np.array([[0.0, 4e-7, -3e-7], [1e-9, 1e-4, -0.1], [0.08, 0.1, 5.0]])
        factor, slope = _sinc_factor(b, t, slope=True)
        near = np.abs(b * t) < discrepancy_module._NEAR_LAG
        bb = np.broadcast_to(b, t.shape)
        series = discrepancy_module._sinc_series(bb[near], t[near], slope=True)
        assert 0 < near.sum() < near.size
        assert np.array_equal(factor[near], series[0])
        assert np.array_equal(slope[near], series[1])
        assert np.array_equal(_sinc_factor(b, t), factor)

    def test_sinc_factor_slope_matches_mpmath(self):
        # Relative accuracy on the series side of _NEAR_LAG; beyond it
        # cos(z)/z - sin(z)/z^2 still cancels a few bits, so the bound
        # there is in units of the slope's scale b^2/pi.
        near = discrepancy_module._NEAR_LAG
        eps = np.finfo(float).eps
        z = np.concatenate([np.geomspace(1e-5, 0.5, 120), np.linspace(0.2, 0.5, 61)])
        for b in (0.3, 1.0, 2.7):
            t = z / b
            factor, slope = _sinc_factor(b, t, slope=True)
            for zk, tk, fk, dk in zip(z, t, factor, slope):
                ref_f, ref_d = sinc_reference(b, tk)
                scale = abs(ref_d) if zk < near else b * b / np.pi
                assert fk == pytest.approx(ref_f, rel=4.0 * eps, abs=0.0)
                assert abs(dk - ref_d) <= 8.0 * eps * scale

    def test_pass_takes_no_sine_or_cosine_on_the_pair_grid(self, monkeypatch):
        S, p, box = _instance(40, 3, 61)
        W = S.points.copy()
        W[1] = W[0] + 1e-3 / box.b
        sizes = []

        def counting(ufunc):
            def call(x, *args, **kwargs):
                sizes.append(np.size(x))
                return ufunc(x, *args, **kwargs)
            return call

        monkeypatch.setattr(np, "sin", counting(np.sin))
        monkeypatch.setattr(np, "cos", counting(np.cos))
        BoxObjective(p, box).value_and_grad(W)
        gaussian_discrepancy_terms(W, p, box)
        sinc_gram(box, W)
        assert sizes and max(sizes) <= W.size


class TestDiscrepancyGradient:
    def test_matches_central_differences(self):
        for seed in range(5):
            S, p, box = _instance(5, 3, seed)
            g = discrepancy_gradient(S, p, box)
            fd = _fd_gradient(S, p, box)
            rel = np.abs(g - fd) / (np.abs(g) + 1e-12)
            assert rel.max() <= 1e-5

    def test_directional_derivative(self):
        S, p, box = _instance(6, 2, 42)
        g = discrepancy_gradient(S, p, box).ravel()
        rng = np.random.default_rng(43)
        h = 1e-6
        for _ in range(10):
            u = rng.normal(size=g.size)
            u /= np.linalg.norm(u)
            Wp = S.points + h * u.reshape(S.points.shape)
            Wm = S.points - h * u.reshape(S.points.shape)
            fd = (sum(gaussian_discrepancy_terms(Wp, p, box))
                  - sum(gaussian_discrepancy_terms(Wm, p, box))) / (2.0 * h)
            assert fd == pytest.approx(float(g @ u), rel=2e-4, abs=1e-10)

    def test_antisymmetric_pair_1d(self):
        p = ProductDensity.gaussian(1.0, d=1)
        box = Box(b=[1.0])
        S = FrequencySet(points=[[0.37], [-0.37]])
        g = discrepancy_gradient(S, p, box)
        assert g[0, 0] == pytest.approx(-g[1, 0], rel=1e-10)

    def test_zero_at_origin_single_point(self):
        p = ProductDensity.gaussian([1.0, 2.0])
        box = Box(b=[1.0, 0.5])
        S = FrequencySet(points=np.zeros((1, 2)))
        assert np.all(discrepancy_gradient(S, p, box) == 0.0)

    def test_cauchy_matches_central_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            sigma = rng.uniform(0.5, 2.0, 3)
            p = ProductDensity.cauchy(sigma)
            box = Box(b=rng.uniform(0.5, 2.0, 3))
            S = FrequencySet(points=rng.standard_cauchy(size=(5, 3)) / sigma)
            g = discrepancy_gradient(S, p, box)
            fd = _fd_gradient(S, p, box)
            rel = np.abs(g - fd) / (np.abs(g) + 1e-12)
            assert rel.max() <= 1e-5


def _reference_value_and_grad(S, p, box):
    """D^2 and its gradient term by term, with every product over q != j
    formed explicitly (the O(d^2 s^2) textbook evaluation)."""
    W = S.points
    s, d = W.shape
    sigma, b = p.scale, box.b
    G = BoxObjective(p, box).factors(W)
    delta = W[:, None, :] - W[None, :, :]
    # Plain-sine factors: nothing shared with the pair sweep under test.
    factors = np.moveaxis(b / np.pi * np.sinc(b * delta / np.pi), 2, 0)
    value = (np.prod(factors, axis=0).sum() / (s * s) - 2.0 / s * np.prod(G, axis=1).sum()
             + float(np.prod(sigma / (2.0 * np.sqrt(np.pi)) * np.array(
                 [math.erf(v) for v in b / sigma]))))
    slopes = np.stack([_sinc_factor(b[j], delta[:, :, j], slope=True)[1] for j in range(d)])
    edge = np.sqrt(2.0 / np.pi) * sigma / np.sqrt(2.0 * np.pi) * sigma * np.exp(
        -b * b / (2.0 * sigma * sigma))
    Gprime = -(sigma * sigma) * W * G + edge * np.sin(b * W)
    grad = np.zeros((s, d))
    for j in range(d):
        others = [q for q in range(d) if q != j]
        rest = np.prod(factors[others], axis=0)
        grad[:, j] = (2.0 / (s * s)) * (slopes[j] * rest).sum(axis=1) \
            - (2.0 / s) * Gprime[:, j] * np.prod(G[:, others], axis=1)
    return value, grad


def _fused_cases():
    coincident = FrequencySet(points=np.array([[0.4, -0.7, 1.1], [0.4, -0.7, 1.1]]))
    return [
        pytest.param(*_instance(1, 3, 20), id="s=1"),
        pytest.param(coincident, *_instance(2, 3, 21)[1:], id="coincident-pair"),
        pytest.param(*_instance(7, 1, 22), id="d=1"),
        pytest.param(*_instance(6, 16, 23), id="d=16"),
    ]


class TestFusedValueAndGradient:
    @pytest.mark.parametrize("S,p,box", _fused_cases())
    def test_value_matches_terms_and_reference(self, S, p, box):
        value, _ = BoxObjective(p, box).value_and_grad(S.points)
        assert value == pytest.approx(sum(gaussian_discrepancy_terms(S.points, p, box)),
                                      rel=1e-12, abs=0.0)
        assert value == pytest.approx(_reference_value_and_grad(S, p, box)[0], rel=1e-12,
                                      abs=0.0)

    @pytest.mark.parametrize("S,p,box", _fused_cases())
    def test_gradient_matches_central_differences(self, S, p, box):
        _, g = BoxObjective(p, box).value_and_grad(S.points)
        fd = _fd_gradient(S, p, box)
        rel = np.abs(g - fd) / (np.abs(g) + 1e-12)
        assert rel.max() <= 1e-5

    @pytest.mark.parametrize("S,p,box", _fused_cases())
    def test_gradient_matches_reference(self, S, p, box):
        _, g = BoxObjective(p, box).value_and_grad(S.points)
        ref = _reference_value_and_grad(S, p, box)[1]
        assert np.allclose(g, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())

    def test_row_blocks_are_invisible(self, monkeypatch):
        # Blocks of 2 rows with a ragged last block must give the one-block result.
        S, p, box = _instance(9, 3, 24)
        value, g = BoxObjective(p, box).value_and_grad(S.points)
        monkeypatch.setattr(discrepancy_module, "_BLOCK_ENTRIES", 2 * 9)
        value_b, g_b = BoxObjective(p, box).value_and_grad(S.points)
        assert value_b == pytest.approx(value, rel=1e-13, abs=0.0)
        assert np.allclose(g_b, g, rtol=1e-13, atol=1e-16)
        value_terms = sum(gaussian_discrepancy_terms(S.points, p, box))
        assert value_terms == pytest.approx(value, rel=1e-13, abs=0.0)


class TestSincGram:
    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    @pytest.mark.parametrize("S,p,box", _fused_cases())
    def test_symmetric_and_sums_to_the_pass_pair_term(self, S, p, box, kind):
        density = getattr(ProductDensity, kind)(p.scale)
        H = sinc_gram(box, S.points)
        assert np.array_equal(H, H.T)
        term1 = gaussian_discrepancy_terms(S.points, density, box)[0]
        assert H.sum() / S.s ** 2 == pytest.approx(term1, rel=1e-13, abs=0.0)

    def test_row_blocks_are_invisible(self, monkeypatch):
        S, _, box = _instance(9, 3, 24)
        H = sinc_gram(box, S.points)
        monkeypatch.setattr(discrepancy_module, "_BLOCK_ENTRIES", 2 * 9)
        H_b = sinc_gram(box, S.points)
        assert np.array_equal(H_b, H_b.T)
        assert np.allclose(H_b, H, rtol=1e-13, atol=0.0)


def _pair_envelope_weights(W, b):
    """Per pair and dimension, envelopes of |sinc factor| and |slope| and
    the rounding weight 1 + sum_q |z_q| of the angles z_q = b_q (w_lq - w_mq).

    Any float64 evaluation of sin(z) carries the rounding of z, eps |z|, so
    a factor's error is a few eps times its envelope times that weight.
    """
    z = b * (W[:, None, :] - W[None, :, :])
    scale = np.maximum(1.0, np.abs(z))
    return b / np.pi / scale, b * b / np.pi / scale, 1.0 + np.abs(z).sum(axis=2)


def _fused_tolerances(W, p, box, rtol):
    """Tolerances for D^2 and each gradient entry: rtol times the sum of
    the absolute summands, each pairwise summand bounded by its envelope
    and weighted for the rounding of its angles."""
    s, d = W.shape
    env, slope_env, weight = _pair_envelope_weights(W, box.b)
    objective = BoxObjective(p, box)
    G = objective.factors(W)
    Gprime = objective.slopes(W, G)
    value_tol = rtol * ((np.prod(env, axis=2) * weight).sum() / (s * s)
                        + (2.0 / s) * np.abs(np.prod(G, axis=1)).sum()
                        + objective.norm_sq)
    grad_tol = np.empty((s, d))
    for j in range(d):
        others = [q for q in range(d) if q != j]
        pair = (slope_env[:, :, j] * np.prod(env[:, :, others], axis=2) * weight).sum(axis=1)
        cross = np.abs(Gprime[:, j] * np.prod(G[:, others], axis=1))
        grad_tol[:, j] = rtol * ((2.0 / (s * s)) * pair + (2.0 / s) * cross)
    return value_tol, grad_tol


# |b * lag| of the near duplicates: exact ones, the zero-lag series of the
# factor and of the slope, and either side of the pass's near-lag constant.
_NEAR_LAGS = [0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.05,
              0.5 * discrepancy_module._NEAR_LAG, 0.999 * discrepancy_module._NEAR_LAG,
              1.001 * discrepancy_module._NEAR_LAG, 2.0 * discrepancy_module._NEAR_LAG]


@st.composite
def _pair_grid_cases(draw):
    """Frequencies with exact and near duplicates, |b w| up to ~300, and a
    row-block size that leaves a ragged last block."""
    s = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.uniform(0.25, 4.0, d)
    reach = draw(st.sampled_from([0.5, 3.0, 30.0, 300.0]))
    W = rng.uniform(-reach, reach, size=(s, d)) / b
    for _ in range(draw(st.integers(0, s))):
        l, m = rng.integers(0, s, 2)
        lags = rng.choice(_NEAR_LAGS, size=d) * rng.choice([-1.0, 1.0], size=d) / b
        W[l] = np.where(rng.random(d) < 0.8, W[m] + lags, W[l])
    p = ProductDensity.gaussian(rng.uniform(0.5, 2.0, d))
    block_rows = draw(st.integers(1, max(1, s - 1)))
    return W, p, Box(b=b), block_rows * s


class TestPairGridProperties:
    @settings(max_examples=150, deadline=None)
    @given(_pair_grid_cases())
    def test_matches_reference(self, case):
        W, p, box, block_entries = case
        value_tol, grad_tol = _fused_tolerances(W, p, box, rtol=2e-13)
        ref_value, ref_grad = _reference_value_and_grad(FrequencySet(points=W), p, box)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discrepancy_module, "_BLOCK_ENTRIES", block_entries)
            value, grad = BoxObjective(p, box).value_and_grad(W)
            terms = gaussian_discrepancy_terms(W, p, box)
        assert abs(value - ref_value) <= value_tol
        assert abs(sum(terms) - ref_value) <= value_tol
        assert np.all(np.abs(grad - ref_grad) <= grad_tol)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an extended-precision long double")
    def test_point_sincos_carries_product_rounding(self):
        # sin(b w) for |b w| up to 300 to within 2 eps, where sin(fl(b w))
        # is off by up to eps |b w| / 2.
        rng = np.random.default_rng(50)
        b = rng.uniform(0.25, 4.0, 3)
        W = rng.uniform(-300.0, 300.0, size=(400, 3)) / b
        sin_w, cos_w = discrepancy_module._point_sincos(b, W)
        exact = b.astype(np.longdouble) * W.astype(np.longdouble)
        eps = np.finfo(float).eps
        assert np.abs(sin_w - np.sin(exact)).max() <= 2.0 * eps
        assert np.abs(cos_w - np.cos(exact)).max() <= 2.0 * eps

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_central_differences(self, seed, monkeypatch):
        # Near and exact duplicates and several ragged row blocks.
        rng = np.random.default_rng(40 + seed)
        s, d = 9, 3
        S, p, box = _instance(s, d, 40 + seed)
        W = S.points.copy()
        for l, m in ((1, 0), (4, 2), (7, 6)):
            W[l] = W[m] + rng.choice(_NEAR_LAGS[1:], size=d) / box.b
        W[8] = W[3]
        monkeypatch.setattr(discrepancy_module, "_BLOCK_ENTRIES", (1 + seed) * s)
        S = FrequencySet(points=W)
        _, g = BoxObjective(p, box).value_and_grad(W)
        fd = _fd_gradient(S, p, box)
        rel = np.abs(g - fd) / (np.abs(g) + 1e-12)
        assert rel.max() <= 1e-5


class TestEmptyFrequencySet:
    def test_rejected_naming_s(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        W = np.empty((0, 2))
        for call in (lambda: BoxObjective(p, box).value_and_grad(W),
                     lambda: gaussian_discrepancy_terms(W, p, box),
                     lambda: discrepancy_gradient(FrequencySet(points=W), p, box)):
            with pytest.raises(ValueError, match="s >= 1"):
                call()

    @pytest.mark.parametrize("entry", ["optimize_weights", "WeightedFeatureMap",
                                       "average_case_mc_check"])
    def test_entry_points_dividing_by_s_reject_it_up_front(self, entry):
        # Under the suite's error::RuntimeWarning filter, a warning emitted on
        # the way (such as a 0/0 in the Monte Carlo loop) would fail this too.
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S = FrequencySet(points=np.empty((0, 2)))
        call = {"optimize_weights": lambda: optimize_weights(S, p, box),
                "WeightedFeatureMap": lambda: WeightedFeatureMap(freqs=S),
                "average_case_mc_check": lambda: average_case_mc_check(S, p, box, 1000, 0)}
        with pytest.raises(ValueError, match="s >= 1"):
            call[entry]()


_ENTRIES = {
    "gaussian_discrepancy_terms": gaussian_discrepancy_terms,
    "BoxObjective.terms": lambda W, p, box: BoxObjective(p, box).terms(W),
    "BoxObjective.value_and_grad": lambda W, p, box: BoxObjective(p, box).value_and_grad(W),
    "BoxObjective.H_v": lambda W, p, box: BoxObjective(p, box).H_v(W),
}


class TestDimensionMismatch:
    @pytest.mark.parametrize("d_W", [1, 3])
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_fused_pass_rejects_other_frequency_dimensions(self, entry, d_W):
        p = ProductDensity.gaussian(1.0, d=2)
        W = np.random.default_rng(d_W).normal(size=(5, d_W))
        with pytest.raises(ValueError, match="dimension mismatch"):
            _ENTRIES[entry](W, p, Box(b=[1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1)])
    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_malformed_frequency_arrays_raise_value_error(self, entry, shape):
        p = ProductDensity.gaussian(1.0, d=2)
        with pytest.raises(ValueError):
            _ENTRIES[entry](np.ones(shape), p, Box(b=[1.0, 1.0]))

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_objective_rejects_density_and_box_of_other_dimensions(self, kind):
        p = getattr(ProductDensity, kind)(1.0, d=2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            BoxObjective(p, Box(b=[1.0, 1.0, 1.0]))


class TestClosedFormOncePerRun:
    """Each run derives the density's closed form once, however many times
    it evaluates the discrepancy."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        for name in ("_gaussian_closed_form", "_cauchy_closed_form"):
            original = getattr(discrepancy_module, name)

            def counted(density, box, original=original):
                calls.append(density.kind)
                return original(density, box)

            monkeypatch.setattr(discrepancy_module, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_global(self, monkeypatch, kind):
        p = getattr(ProductDensity, kind)([0.8, 1.3])
        S0 = transform(halton(8, 2), p)
        calls = self._count(monkeypatch)
        trace = optimize_global(S0, p, Box(b=[1.0, 1.5]), OptimizerOptions(max_iters=4))
        assert trace.n_iters >= 3
        assert calls == [kind]

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_greedy(self, monkeypatch, kind):
        p = getattr(ProductDensity, kind)([0.8, 1.3])
        init = transform(halton(4, 2), p)
        calls = self._count(monkeypatch)
        optimize_greedy(4, p, Box(b=[1.0, 1.5]), init, OptimizerOptions(max_iters=5))
        assert calls == [kind]

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_weights(self, monkeypatch, kind):
        p = getattr(ProductDensity, kind)([0.8, 1.3])
        S = transform(halton(12, 2), p)
        calls = self._count(monkeypatch)
        xi, _ = optimize_weights(S, p, Box(b=[1.0, 1.5]))
        assert calls == [kind]
        calls.clear()
        weighted_discrepancy(S, xi, p, Box(b=[1.0, 1.5]))
        assert calls == [kind]


class TestNonlinearCg:
    def _quadratic(self, seed=0, n=5):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(n, n))
        A = M @ M.T + np.eye(n)
        rhs = rng.normal(size=n)
        obj = lambda x: 0.5 * x @ A @ x - rhs @ x
        grad = lambda x: A @ x - rhs
        return A, rhs, obj, grad

    def test_convex_quadratic_converges(self):
        A, rhs, obj, grad = self._quadratic()
        opts = OptimizerOptions(max_iters=200, grad_tol=1e-8)
        trace = nonlinear_cg(lambda x: (obj(x), grad(x)), np.zeros(5), opts)
        assert trace.converged
        assert trace.grad_norms[-1] < 1e-8
        assert np.allclose(trace.x, np.linalg.solve(A, rhs), atol=1e-6)

    def test_objective_non_increasing(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        rosen_grad = lambda x: np.array([
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2)])
        opts = OptimizerOptions(max_iters=150, grad_tol=1e-12)
        trace = nonlinear_cg(lambda x: (rosen(x), rosen_grad(x)), np.array([-1.2, 1.0]), opts)
        diffs = np.diff(trace.objective_values)
        assert np.all(diffs <= 1e-15)

    def test_each_point_is_evaluated_once(self):
        # One call returns value and gradient, so no trial point (start,
        # backtrack or interpolation refinement) is evaluated twice.
        seen = []

        def rosen(x):
            seen.append(x.tobytes())
            return ((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2,
                    np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                              200 * (x[1] - x[0] ** 2)]))

        trace = nonlinear_cg(rosen, np.array([-1.2, 1.0]),
                             OptimizerOptions(max_iters=150, grad_tol=1e-12))
        assert trace.n_iters > 0
        assert len(seen) > trace.n_iters
        assert len(set(seen)) == len(seen)

    def test_stationary_start_returns_immediately(self):
        A, rhs, obj, grad = self._quadratic(seed=1)
        x_star = np.linalg.solve(A, rhs)
        trace = nonlinear_cg(lambda x: (obj(x), grad(x)), x_star,
                             OptimizerOptions(grad_tol=1e-6))
        assert trace.n_iters == 0
        assert trace.converged
        assert np.array_equal(trace.x, x_star)

    def test_max_iters_zero_keeps_start(self):
        A, rhs, obj, grad = self._quadratic(seed=2)
        trace = nonlinear_cg(lambda x: (obj(x), grad(x)), np.ones(5),
                             OptimizerOptions(max_iters=0))
        assert trace.n_iters == 0
        assert np.array_equal(trace.x, np.ones(5))

    def test_option_validation(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_iters=-1)
        with pytest.raises(ValueError):
            OptimizerOptions(grad_tol=-1.0)
        for grad_tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
                OptimizerOptions(grad_tol=grad_tol)


class TestOptimizeGlobal:
    def test_reduces_discrepancy_and_monotone(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S0 = transform(halton(8, 2), p)
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=60))
        vals = trace.objective_values
        assert vals[-1] < vals[0]
        assert np.all(np.diff(vals) <= 1e-15)
        assert trace.freqs.provenance["source"] == "global-adaptive"
        assert box_discrepancy_gaussian(trace.freqs, p, box).d_squared == pytest.approx(
            vals[-1], rel=1e-12)

    def test_zero_iterations_returns_input(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S0 = transform(halton(6, 2), p)
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=0))
        assert np.array_equal(trace.freqs.points, S0.points)

    def test_cauchy_reduces_discrepancy_tenfold(self):
        # The Laplacian kernel's characteristic function exp(-|beta|/sigma)
        # has a kink at 0, which an average of s exponentials matches only
        # slowly, so the reachable reduction shrinks as b/sigma and s grow:
        # at sigma = b = 1, s = 32, d = 2 a dozen starts all stop at 0.16 of
        # Halton's D^2 or above.  A wide kernel keeps the kink mild over the
        # box.
        p = ProductDensity.cauchy(4.0, d=2)
        box = Box(b=[1.0, 1.0])
        trace = optimize_global(transform(halton(8, 2), p), p, box,
                                OptimizerOptions(max_iters=100))
        vals = trace.objective_values
        assert vals[-1] <= 0.1 * vals[0]
        assert np.all(np.diff(vals) <= 1e-15)
        assert box_discrepancy_gaussian(trace.freqs, p, box).d_squared == pytest.approx(
            vals[-1], rel=1e-12)

    def test_permutation_equivariance(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S0 = transform(halton(6, 2), p)
        perm = np.random.default_rng(1).permutation(6)
        S0p = FrequencySet(points=S0.points[perm])
        opts = OptimizerOptions(max_iters=25)
        t1 = optimize_global(S0, p, box, opts)
        t2 = optimize_global(S0p, p, box, opts)
        assert np.allclose(t1.objective_values, t2.objective_values, rtol=1e-10)
        assert np.allclose(t1.freqs.points[perm], t2.freqs.points, atol=1e-8)


class TestOptimizeGlobalTrace:
    """The trace L-BFGS-B leaves through its callback."""

    def _setup(self, s=8, d=2):
        p = ProductDensity.gaussian(1.0, d=d)
        box = Box(b=[1.0] * d)
        return p, box, transform(halton(s, d), p)

    def test_x_is_the_returned_points(self):
        p, box, S0 = self._setup()
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=20))
        assert np.array_equal(trace.x, trace.freqs.points.ravel())

    @pytest.mark.parametrize("max_iters", [1, 5, 40])
    def test_one_record_per_iteration(self, max_iters):
        p, box, S0 = self._setup()
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=max_iters))
        assert len(trace.objective_values) == trace.n_iters + 1 <= max_iters + 1
        assert len(trace.grad_norms) == trace.n_iters + 1
        assert len(trace.step_sizes) == trace.n_iters
        assert trace.freqs.provenance["iterations"] == trace.n_iters

    def test_last_gradient_norm_is_that_of_the_returned_points(self):
        p, box, S0 = self._setup()
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=20))
        g = discrepancy_gradient(trace.freqs, p, box)
        assert trace.grad_norms[-1] == pytest.approx(np.linalg.norm(g), rel=1e-12)

    def test_step_sizes_are_distances_between_iterates(self):
        p, box, S0 = self._setup()
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=3))
        assert trace.n_iters == 3
        steps = [optimize_global(S0, p, box, OptimizerOptions(max_iters=k)).x
                 for k in range(4)]
        assert trace.step_sizes == pytest.approx(
            [np.linalg.norm(b - a) for a, b in zip(steps, steps[1:])], rel=1e-12)

    def test_stationary_start_returns_with_zero_iterations(self):
        p, box, S0 = self._setup()
        g0 = np.linalg.norm(discrepancy_gradient(S0, p, box))
        trace = optimize_global(S0, p, box, OptimizerOptions(grad_tol=1.5 * g0))
        assert trace.n_iters == 0
        assert trace.converged
        assert np.array_equal(trace.freqs.points, S0.points)

    def test_stops_at_gradient_tolerance(self):
        p, box, S0 = self._setup()
        free = optimize_global(S0, p, box, OptimizerOptions(max_iters=30))
        tol = free.grad_norms[6]
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=30, grad_tol=tol))
        assert trace.converged
        assert trace.grad_norms[-1] <= tol
        assert all(g > tol for g in trace.grad_norms[:-1])
        assert 1 <= trace.n_iters <= 6

    @pytest.mark.parametrize("message, failed", [
        ("ABNORMAL: ", True),
        ("STOP: CALLBACK REQUESTED HALT", False),
        ("STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", False),
    ])
    def test_line_search_failure_read_from_the_message(self, monkeypatch, message, failed):
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *args, **kwargs: OptimizeResult(message=message, status=2))
        p, box, S0 = self._setup()
        trace = optimize_global(S0, p, box, OptimizerOptions(max_iters=5))
        assert trace.line_search_failed is failed

    @pytest.mark.parametrize("s, bound", [(64, 5.1592e-4), (192, 7.6950e-5)])
    def test_no_worse_than_conjugate_gradient_at_benchmark_size(self, s, bound):
        # The adaptive-global cells of the adaptive_global benchmark: d=6,
        # sigma=2, features spanning [-3, 3] at box scale 0.5 (b = 3), 35
        # iterations from Halton.  The bounds are D^2 after the same 35
        # iterations of Polak-Ribiere-plus conjugate gradient.
        p = ProductDensity.gaussian(2.0, d=6)
        box = Box(b=[3.0] * 6)
        trace = optimize_global(transform(halton(s, 6), p), p, box,
                                OptimizerOptions(max_iters=35))
        assert box_discrepancy_gaussian(trace.freqs, p, box).d_squared <= bound


class TestOptimizeGreedy:
    def test_single_point_beats_initializer(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        init = transform(halton(1, 2), p)
        trace = optimize_greedy(1, p, box, init, OptimizerOptions(max_iters=200,
                                                                  grad_tol=1e-10))
        assert trace.objective_values[-1] <= box_discrepancy_gaussian(
            init, p, box).d_squared + 1e-15

    def test_recorded_objective_matches_recomputation(self):
        # Greedy keeps running sums; every recorded value must equal a full
        # recomputation of D^2 over the points placed so far.
        for d in (1, 2, 3):
            p = ProductDensity.gaussian(1.0, d=d)
            box = Box(b=[1.0] * d)
            init = transform(halton(8, d), p)
            trace = optimize_greedy(8, p, box, init, OptimizerOptions(max_iters=50,
                                                                      grad_tol=1e-10))
            for t, value in enumerate(trace.objective_values):
                full = box_discrepancy_gaussian(
                    FrequencySet(points=trace.freqs.points[:t + 1]), p, box).d_squared
                assert value == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_dominates_plain_halton(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        init = transform(halton(6, 2), p)
        trace = optimize_greedy(6, p, box, init, OptimizerOptions(max_iters=100,
                                                                  grad_tol=1e-10))
        assert trace.objective_values[-1] <= box_discrepancy_gaussian(
            init, p, box).d_squared

    @pytest.mark.parametrize("s", [6, 16])
    def test_cauchy_objective_is_the_cauchy_discrepancy(self, s):
        # Every append's recorded value is the Cauchy D^2 of the points so
        # far, not the Gaussian one, and the grown sequence beats Halton.
        p = ProductDensity.cauchy([1.0, 0.5])
        box = Box(b=[1.0, 2.0])
        init = transform(halton(s, 2), p)
        trace = optimize_greedy(s, p, box, init, OptimizerOptions(max_iters=200,
                                                                  grad_tol=1e-10))
        for t, value in enumerate(trace.objective_values):
            full = box_discrepancy_gaussian(
                FrequencySet(points=trace.freqs.points[:t + 1]), p, box).d_squared
            assert value == pytest.approx(full, rel=1e-12, abs=0.0)
        assert trace.objective_values[-1] < box_discrepancy_gaussian(init, p, box).d_squared

    def test_inner_solves_reach_the_gradient_tolerance(self):
        # The greedy_seq benchmark configuration.  An inner solve whose
        # slope rounding leaves the gradient above grad_tol runs to the
        # iteration cap.
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[3.0, 3.0])
        init = transform(halton(4, 2), p)
        trace = optimize_greedy(4, p, box, init, OptimizerOptions(max_iters=200,
                                                                  grad_tol=1e-10))
        assert len(trace.grad_norms) == 4
        assert max(trace.grad_norms) <= 1e-10
        assert trace.converged and not trace.line_search_failed

    def test_one_unconverged_inner_solve_marks_the_run(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[3.0, 3.0])
        init = transform(halton(4, 2), p)
        trace = optimize_greedy(4, p, box, init, OptimizerOptions(max_iters=1,
                                                                  grad_tol=1e-10))
        assert max(trace.grad_norms) > 1e-10
        assert not trace.converged

    def test_requires_enough_initializers(self):
        p = ProductDensity.gaussian(1.0, d=2)
        init = transform(halton(2, 2), p)
        with pytest.raises(ValueError):
            optimize_greedy(5, p, Box(b=[1.0, 1.0]), init, OptimizerOptions())

    def test_rejects_initializers_of_another_dimension(self):
        p = ProductDensity.gaussian(1.0, d=1)
        init = transform(halton(4, 2), ProductDensity.gaussian(1.0, d=2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            optimize_greedy(4, p, Box(b=[1.0]), init, OptimizerOptions())


class TestNnls:
    def test_matches_scipy_on_random_problems(self):
        # optimize_weights returns scipy's NNLS solution of the jittered
        # Cholesky system of the quadratic program, with a KKT certificate.
        from scipy.linalg import solve_triangular
        from scipy.optimize import nnls as scipy_nnls

        for seed in range(10):
            S, p, box = _instance(12, 2, seed)
            H, v = assemble_H_v(S, p, box)
            L = np.linalg.cholesky(H + 1e-12 * np.trace(H) / S.s * np.eye(S.s))
            ref, _ = scipy_nnls(L.T, solve_triangular(L, v, lower=True))
            xi, kkt = optimize_weights(S, p, box)
            assert kkt <= 1e-8
            assert np.allclose(xi, ref, atol=1e-8)


class TestOptimizeWeights:
    def test_kkt_residual_small(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S = transform(halton(16, 2), p)
        xi, kkt = optimize_weights(S, p, box)
        assert kkt <= 1e-8
        assert np.all(xi >= 0.0)

    def test_cauchy_kkt_residual_small(self):
        p = ProductDensity.cauchy([1.0, 2.0])
        box = Box(b=[1.0, 1.5])
        S = transform(halton(16, 2), p)
        xi, kkt = optimize_weights(S, p, box)
        assert kkt <= 1e-8
        assert np.all(xi >= 0.0)
        uniform = np.full(S.s, 1.0 / S.s)
        assert weighted_discrepancy(S, xi, p, box) <= weighted_discrepancy(
            S, uniform, p, box) + 1e-15

    def test_interior_optimum_matches_linear_solve(self):
        # well separated points over a wide box: H^-1 v is already feasible
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[2.0, 2.0])
        S = transform(halton(6, 2), p)
        H, v = assemble_H_v(S, p, box)
        direct = np.linalg.solve(H, v)
        assert np.all(direct > 0.0), "instance must have an interior optimum"
        xi, kkt = optimize_weights(S, p, box)
        assert kkt <= 1e-8
        assert np.allclose(xi, direct, atol=1e-8)

    def test_beats_uniform_weights(self):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        S = transform(halton(12, 2), p)
        xi, _ = optimize_weights(S, p, box)
        uniform = np.full(S.s, 1.0 / S.s)
        assert weighted_discrepancy(S, xi, p, box) <= weighted_discrepancy(
            S, uniform, p, box) + 1e-15
