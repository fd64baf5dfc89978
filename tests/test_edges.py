"""Property tests at the edges: a single frequency, bandwidths from 1e-8 to
1e8, coincident frequencies in the weight solve, and unit points at the
clamp bounds under both densities.

Every number a report holds must be finite, the weight solve's KKT residual
must stay within 1e-8, and a squared discrepancy may fall below zero only by
the rounding of its three summands, 8 eps (|term1| + |term2| + |term3|).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmcrff.adaptive import optimize_weights
from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.discrepancy import (
    Box,
    BoxObjective,
    assemble_H_v,
    box_discrepancy_gaussian,
)
from qmcrff.experiment import (
    ADAPTIVE_SEQUENCES,
    Dataset,
    ExperimentConfig,
    _frequency_maps_for_cell,
    _prologue,
    run_pipeline,
)
from qmcrff.featmap import WeightedFeatureMap, real_feature_matrix
from qmcrff.sequences import UNIT_EPS, UNIT_SEQUENCES, UnitPointSet, make_pointset

EPS = np.finfo(float).eps
PIPELINE_SEQUENCES = (*UNIT_SEQUENCES, *ADAPTIVE_SEQUENCES)
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
    terms = (BoxObjective(density, box).norm_sq, -2.0 * float(v @ xi), float(xi @ H @ xi))
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
           seq=st.sampled_from(list(UNIT_SEQUENCES)),
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
        value, grad = BoxObjective(density, box).value_and_grad(freqs.points)
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


class TestClampBounds:
    """Unit coordinates at UNIT_EPS and 1 - UNIT_EPS, where the generators
    clamp: the normal quantile maps them to about -+8.1 / sigma and the Cauchy
    quantile to about -+1.4e15 / sigma."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "cauchy"]),
           log_sigma=st.lists(_log_sigma, min_size=1, max_size=3), seed=st.integers(0, 2 ** 16))
    @example(kind="cauchy", log_sigma=[0.0, 0.0], seed=0)
    @example(kind="cauchy", log_sigma=[8.0], seed=0)
    @example(kind="cauchy", log_sigma=[-8.0], seed=0)
    # Draws on which scipy's NNLS alone stopped with KKT residuals 1.2e-7,
    # 2.1e-7 and 4.1e-8.
    @example(kind="gaussian", log_sigma=[-1.0, -0.75, 0.78125], seed=1355)
    @example(kind="gaussian", log_sigma=[0.5, -0.375, -0.65625], seed=44571)
    @example(kind="gaussian", log_sigma=[-0.96875, 0.40625, -0.625], seed=57814)
    def test_transform_discrepancy_gradient_weights(self, kind, log_sigma, seed):
        d = len(log_sigma)
        grid = list(itertools.product([UNIT_EPS, 0.5, 1.0 - UNIT_EPS], repeat=d))
        density = ProductDensity(kind, 10.0 ** np.asarray(log_sigma))
        freqs = transform(UnitPointSet(points=grid, generator="file"), density)
        rng = np.random.default_rng(seed)
        box = Box(b=rng.uniform(0.5, 6.0, d))
        r = box_discrepancy_gaussian(freqs, density, box)
        assert all(math.isfinite(v) for v in (r.term1, r.term2, r.term3))
        assert r.d_squared >= _rounding_floor(r.term1, r.term2, r.term3)
        value, grad = BoxObjective(density, box).value_and_grad(freqs.points)
        assert math.isfinite(value) and np.all(np.isfinite(grad))
        xi, kkt = optimize_weights(freqs, density, box)
        assert np.all(np.isfinite(xi)) and kkt <= KKT_TOL
        weighted, floor = _weighted_d2_and_floor(freqs, xi, density, box)
        assert weighted >= floor
        Z = real_feature_matrix(WeightedFeatureMap(freqs=freqs, weights=xi),
                                rng.standard_normal((5, d)))
        assert np.all(np.isfinite(Z))

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    @settings(max_examples=5, deadline=None)
    @given(log_sigma=_log_sigma, d=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    @example(log_sigma=0.0, d=2, seed=0)
    def test_pipeline_with_the_lattice_origin(self, kernel, log_sigma, d, seed):
        # The lattice's first point is the origin, clamped to UNIT_EPS.
        ds = _dataset(d, seed)
        cfg = ExperimentConfig(kernel=kernel, sigma=(10.0 ** log_sigma,),
                               sequences=PIPELINE_SEQUENCES, s_grid=(1, 4), trials=2,
                               seed=seed, adapt_iters=5)
        report = run_pipeline(cfg, ds)
        assert all(math.isfinite(v) for v in _numbers(report["cells"]))
        _, density, box, _, _ = _prologue(cfg, ds)
        for cell in report["cells"]:
            assert "discrepancy" in cell
            for freqs, xi in _frequency_maps_for_cell(cfg, density, box, cell["label"],
                                                      cell["s"], d):
                if xi is None:
                    r = box_discrepancy_gaussian(freqs, density, box)
                    value, floor = r.d_squared, _rounding_floor(r.term1, r.term2, r.term3)
                else:
                    value, floor = _weighted_d2_and_floor(freqs, xi, density, box)
                assert value >= floor
