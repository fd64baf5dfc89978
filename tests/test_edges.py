"""Property tests at the edges: a single frequency, bandwidths from 1e-8 to
1e8, and coincident frequencies in the weight solve.

Every number a report holds must be finite, the weight solve's KKT residual
must stay within 1e-8, and a squared discrepancy may fall below zero only by
the rounding of its three summands, 8 eps (|term1| + |term2| + |term3|).
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qmcrff.adaptive import optimize_weights
from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.discrepancy import (
    Box,
    assemble_H_v,
    box_discrepancy_gaussian,
    gaussian_mean_norm_sq,
    gaussian_value_and_grad,
)
from qmcrff.experiment import (
    PIPELINE_SEQUENCES,
    Dataset,
    ExperimentConfig,
    _frequency_maps_for_cell,
    _prologue,
    make_pointset,
    run_pipeline,
)
from qmcrff.featmap import WeightedFeatureMap, real_feature_matrix

EPS = np.finfo(float).eps
KKT_TOL = 1e-8

_log_sigma = st.floats(-8.0, 8.0, allow_nan=False)


def _numbers(payload):
    if isinstance(payload, dict):
        for value in payload.values():
            yield from _numbers(value)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            yield from _numbers(value)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield payload


def _rounding_floor(*terms):
    return -8.0 * EPS * sum(abs(t) for t in terms)


def _weighted_d2_and_floor(freqs, xi, density, box):
    H, v = assemble_H_v(freqs, density, box)
    terms = (gaussian_mean_norm_sq(density, box), -2.0 * float(v @ xi), float(xi @ H @ xi))
    return sum(terms), _rounding_floor(*terms)


def _dataset(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((24, d))
    return Dataset(X=X, y=np.sin(X.sum(axis=1)) + rng.normal(0.0, 0.01, 24))


class TestSingleFrequency:
    @settings(max_examples=25, deadline=None)
    @given(log_sigma=_log_sigma, d=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    @example(log_sigma=8.0, d=2, seed=0)
    @example(log_sigma=-8.0, d=1, seed=0)
    def test_every_pipeline_sequence(self, log_sigma, d, seed):
        ds = _dataset(d, seed)
        cfg = ExperimentConfig(sigma=(10.0 ** log_sigma,), sequences=PIPELINE_SEQUENCES,
                               s_grid=(1,), trials=2, seed=seed, adapt_iters=5)
        report = run_pipeline(cfg, ds)
        assert all(math.isfinite(v) for v in _numbers(report["cells"]))
        _, density, box, _, _ = _prologue(cfg, ds)
        for cell in report["cells"]:
            d2 = []
            for freqs, xi in _frequency_maps_for_cell(cfg, density, box, cell["label"], 1, d):
                if xi is None:
                    r = box_discrepancy_gaussian(freqs, density, box)
                    value, floor = r.d_squared, _rounding_floor(r.term1, r.term2, r.term3)
                else:
                    value, floor = _weighted_d2_and_floor(freqs, xi, density, box)
                    assert optimize_weights(freqs, density, box)[1] <= KKT_TOL
                assert value >= floor
                d2.append(value)
            assert cell["discrepancy"]["mean"] == float(np.mean(d2))


class TestBandwidthExtremes:
    @settings(max_examples=40, deadline=None)
    @given(log_sigma=st.lists(_log_sigma, min_size=1, max_size=3),
           seq=st.sampled_from(["halton", "halton-scrambled", "lattice", "mc"]),
           s=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    @example(log_sigma=[8.0, 8.0], seq="halton", s=4, seed=0)
    def test_discrepancy_gradient_and_features(self, log_sigma, seq, s, seed):
        d = len(log_sigma)
        density = ProductDensity.gaussian(10.0 ** np.asarray(log_sigma))
        rng = np.random.default_rng(seed)
        box = Box(b=rng.uniform(0.5, 6.0, d))
        freqs = transform(make_pointset(seq, s, d, seed=seed), density)
        r = box_discrepancy_gaussian(freqs, density, box)
        assert all(math.isfinite(v) for v in (r.term1, r.term2, r.term3))
        assert r.d_squared >= _rounding_floor(r.term1, r.term2, r.term3)
        value, grad = gaussian_value_and_grad(freqs.points, density, box)
        assert math.isfinite(value) and np.all(np.isfinite(grad))
        xi, kkt = optimize_weights(freqs, density, box)
        assert np.all(np.isfinite(xi)) and kkt <= KKT_TOL
        weighted, floor = _weighted_d2_and_floor(freqs, xi, density, box)
        assert weighted >= floor
        X = rng.standard_normal((5, d))
        Z = real_feature_matrix(WeightedFeatureMap(freqs=freqs, weights=xi), X)
        assert np.all(np.isfinite(Z))
        assert np.allclose((Z * Z).sum(axis=1), xi.sum(), rtol=1e-13, atol=0.0)


class TestCoincidentWeights:
    @settings(max_examples=60, deadline=None)
    @given(log_sigma=st.lists(_log_sigma, min_size=1, max_size=3),
           distinct=st.integers(1, 4), s=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
    def test_kkt_and_discrepancy_floor(self, log_sigma, distinct, s, seed):
        d = len(log_sigma)
        sigma = 10.0 ** np.asarray(log_sigma)
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((distinct, d)) / sigma
        freqs = FrequencySet(points=base[rng.integers(0, distinct, s)])
        density = ProductDensity.gaussian(sigma)
        box = Box(b=rng.uniform(0.1, 5.0, d))
        xi, kkt = optimize_weights(freqs, density, box)
        assert np.all(np.isfinite(xi)) and np.all(xi >= 0.0)
        assert kkt <= KKT_TOL
        value, floor = _weighted_d2_and_floor(freqs, xi, density, box)
        assert math.isfinite(value) and value >= floor
