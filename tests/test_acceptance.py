"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success as well.
"""

import math
import time

import numpy as np
import pytest

from qmcrff.adaptive import (
    OptimizerOptions,
    discrepancy_gradient,
    optimize_global,
    optimize_greedy,
    optimize_weights,
)
from qmcrff.experiment import Dataset, ExperimentConfig, run_gram_experiment, run_pipeline
from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.discrepancy import (
    Box,
    assemble_H_v,
    average_case_mc_check,
    box_discrepancy_gaussian,
    expected_mc_discrepancy,
    gaussian_discrepancy_terms,
    weighted_discrepancy,
)
from qmcrff.featmap import WeightedFeatureMap
from qmcrff.sequences import halton, mc_uniform

from oracles import (
    approx_kernel,
    box_discrepancy_quadrature,
    feature_vector,
    real_feature_vector,
)


def _check(num, description, passed):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {num} failed: {description}"


def test_criterion_01_closed_form_matches_quadrature_oracle():
    start = time.time()
    rng = np.random.default_rng(20240101)
    worst = 0.0
    for k in range(50):
        d = int(rng.integers(1, 4))
        s = int(rng.integers(1, 9))
        sigma = rng.uniform(0.5, 2.0, d)
        b = rng.uniform(0.5, 4.0, d)
        density = ProductDensity.gaussian(sigma)
        box = Box(b=b)
        S = FrequencySet(points=rng.normal(0.0, 1.0 / sigma, size=(s, d)))
        closed = box_discrepancy_gaussian(S, density, box).d_squared
        quad = box_discrepancy_quadrature(S, density, box)
        worst = max(worst, abs(closed - quad) / abs(quad))
    # Cauchy frequencies are heavy-tailed: the oracle's node count follows
    # max |w_lj| b_j, so that it resolves every cos(w beta).
    rng = np.random.default_rng(20240113)
    worst_cauchy = 0.0
    for k in range(20):
        d = int(rng.integers(1, 4))
        s = int(rng.integers(1, 9))
        sigma = rng.uniform(0.5, 2.0, d)
        density = ProductDensity.cauchy(sigma)
        box = Box(b=rng.uniform(0.5, 4.0, d))
        S = FrequencySet(points=rng.standard_cauchy(size=(s, d)) / sigma)
        closed = box_discrepancy_gaussian(S, density, box).d_squared
        quad = box_discrepancy_quadrature(S, density, box,
                                          nodes=64 + int(np.max(np.abs(S.points) * box.b)))
        worst_cauchy = max(worst_cauchy, abs(closed - quad) / abs(quad))
    elapsed = time.time() - start
    _check(1, f"closed form vs quadrature, 50 gaussian cases: worst rel {worst:.2e}, "
              f"20 cauchy cases: worst rel {worst_cauchy:.2e} "
              f"(tol 1e-6), {elapsed:.1f}s (limit 60s)",
           worst <= 1e-6 and worst_cauchy <= 1e-6 and elapsed < 60.0)


def test_criterion_02_gradient_matches_finite_differences():
    start = time.time()
    rng = np.random.default_rng(20240102)
    h = 1e-5
    worst = 0.0
    for k in range(30):
        d, s = 4, 6
        sigma = rng.uniform(0.5, 2.0, d)
        b = rng.uniform(0.5, 2.0, d)
        box = Box(b=b)
        if k < 20:
            density = ProductDensity.gaussian(sigma)
            W = rng.normal(0.0, 1.0 / sigma, size=(s, d))
        else:
            density = ProductDensity.cauchy(sigma)
            W = rng.standard_cauchy(size=(s, d)) / sigma
        g = discrepancy_gradient(FrequencySet(points=W), density, box)
        for l in range(s):
            for j in range(d):
                Wp, Wm = W.copy(), W.copy()
                Wp[l, j] += h
                Wm[l, j] -= h
                fd = (sum(gaussian_discrepancy_terms(Wp, density, box))
                      - sum(gaussian_discrepancy_terms(Wm, density, box))) / (2 * h)
                worst = max(worst, abs(g[l, j] - fd) / (abs(g[l, j]) + 1e-12))
    elapsed = time.time() - start
    _check(2, f"analytic vs central-difference gradient, 20 gaussian and 10 cauchy "
              f"cases d=4 s=6: "
              f"worst rel {worst:.2e} (tol 1e-5), {elapsed:.1f}s (limit 10s)",
           worst <= 1e-5 and elapsed < 10.0)


def test_criterion_03_average_case_error_matches_prediction():
    start = time.time()
    density = ProductDensity.gaussian([1.0, 1.0])
    box = Box(b=[1.0, 1.0])
    freqs = transform(halton(16, 2), density)
    report = average_case_mc_check(freqs, density, box, n_samples=200_000,
                                   seed=20240103)
    cauchy = ProductDensity.cauchy([1.0, 1.0])
    report_cauchy = average_case_mc_check(transform(halton(16, 2), cauchy), cauchy, box,
                                          n_samples=200_000, seed=20240114)
    elapsed = time.time() - start
    dev = abs(report.empirical - report.predicted)
    dev_cauchy = abs(report_cauchy.empirical - report_cauchy.predicted)
    # report.predicted carries the pi^d / prod(b) constant; a (2pi)^d
    # constant would be 4x off here and fail by hundreds of SEs.
    _check(3, f"average-case error: empirical {report.empirical:.5e} vs "
              f"pi^2*D^2 {report.predicted:.5e}, |dev| {dev:.2e} <= 3SE "
              f"{3 * report.stderr:.2e}; cauchy {report_cauchy.empirical:.5e} vs "
              f"{report_cauchy.predicted:.5e}, |dev| {dev_cauchy:.2e} <= 3SE "
              f"{3 * report_cauchy.stderr:.2e}, {elapsed:.1f}s (limit 30s)",
           dev <= 3.0 * report.stderr and dev_cauchy <= 3.0 * report_cauchy.stderr
           and elapsed < 30.0)


def test_criterion_04_expected_mc_discrepancy():
    start = time.time()
    s, d = 32, 2
    density = ProductDensity.gaussian([1.0, 1.0])
    box = Box(b=[1.0, 1.0])
    vals = np.empty(500)
    for seed in range(500):
        freqs = transform(mc_uniform(s, d, seed=seed), density)
        vals[seed] = box_discrepancy_gaussian(freqs, density, box).d_squared
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    predicted = expected_mc_discrepancy(s, density, box)
    cauchy = ProductDensity.cauchy([1.0, 1.0])
    vals_c = np.array([box_discrepancy_gaussian(
        transform(mc_uniform(s, d, seed=seed), cauchy), cauchy, box).d_squared
        for seed in range(500, 1000)])
    se_c = vals_c.std(ddof=1) / math.sqrt(len(vals_c))
    predicted_c = expected_mc_discrepancy(s, cauchy, box)
    elapsed = time.time() - start
    dev = abs(vals.mean() - predicted)
    dev_c = abs(vals_c.mean() - predicted_c)
    _check(4, f"expected MC discrepancy: mean {vals.mean():.5e} vs formula "
              f"{predicted:.5e}, |dev| {dev:.2e} <= 3SE {3 * se:.2e}; cauchy "
              f"{vals_c.mean():.5e} vs {predicted_c:.5e}, |dev| {dev_c:.2e} <= 3SE "
              f"{3 * se_c:.2e}, {elapsed:.1f}s (limit 60s)",
           dev <= 3.0 * se and dev_c <= 3.0 * se_c and elapsed < 60.0)


@pytest.fixture(scope="module")
def gram_dataset():
    rng = np.random.default_rng(20240105)
    return Dataset(X=rng.standard_normal((256, 8)))


def test_criterion_05_halton_beats_mc_gram_error(gram_dataset):
    cfg = ExperimentConfig(kernel="gaussian", sigma=(4.0,) * 8,
                           sequences=("halton", "mc"), s_grid=(128, 512),
                           trials=10, seed=11)
    cells = {(c["label"], c["s"]): c["relative_frobenius"]["mean"]
             for c in run_gram_experiment(cfg, gram_dataset)}
    halton_wins = all(cells[("halton", s)] <= cells[("mc", s)] for s in (128, 512))
    both_decrease = (cells[("halton", 512)] < cells[("halton", 128)]
                     and cells[("mc", 512)] < cells[("mc", 128)])
    _check(5, "halton Frobenius error <= mc mean at s in {128,512} "
              f"(halton {cells[('halton', 128)]:.4f}/{cells[('halton', 512)]:.4f}, "
              f"mc {cells[('mc', 128)]:.4f}/{cells[('mc', 512)]:.4f}) "
              "and both decrease with s",
           halton_wins and both_decrease)


def test_criterion_06_mc_error_rate(gram_dataset):
    cfg = ExperimentConfig(kernel="gaussian", sigma=(4.0,) * 8, sequences=("mc",),
                           s_grid=(64, 256, 1024, 4096), trials=10, seed=5)
    cells = run_gram_experiment(cfg, gram_dataset)
    s_values = [c["s"] for c in cells]
    means = [c["relative_frobenius"]["mean"] for c in cells]
    slope = float(np.polyfit(np.log(s_values), np.log(means), 1)[0])
    _check(6, f"MC Frobenius error log-log slope {slope:.3f} within -0.5 +/- 0.1",
           -0.6 <= slope <= -0.4)


def test_criterion_07_global_adaptive_reduces_discrepancy():
    start = time.time()
    density = ProductDensity.gaussian([1.0, 1.0])
    box = Box(b=[1.0, 1.0])
    init = transform(halton(32, 2), density)
    trace = optimize_global(init, density, box, OptimizerOptions(max_iters=100))
    vals = trace.objective_values
    # The Laplacian kernel's characteristic function has a kink at 0 that an
    # average of s exponentials matches only slowly; at sigma = 1, s = 32 the
    # Cauchy optimum sits near 0.16 of Halton's D^2, so its case takes a
    # wide kernel, sigma = 4, with s = 8.
    cauchy = ProductDensity.cauchy([4.0, 4.0])
    vals_c = optimize_global(transform(halton(8, 2), cauchy), cauchy, box,
                             OptimizerOptions(max_iters=100)).objective_values
    monotone = bool(np.all(np.diff(vals) <= 1e-15) and np.all(np.diff(vals_c) <= 1e-15))
    elapsed = time.time() - start
    _check(7, f"global adaptive d=2 s=32: D^2 {vals[0]:.3e} -> {vals[-1]:.3e} "
              f"(ratio {vals[-1] / vals[0]:.2e} <= 0.1); cauchy sigma=4 s=8: "
              f"{vals_c[0]:.3e} -> {vals_c[-1]:.3e} (ratio {vals_c[-1] / vals_c[0]:.2e} "
              f"<= 0.1), monotone={monotone}, {elapsed:.1f}s (limit 120s)",
           vals[-1] <= 0.1 * vals[0] and vals_c[-1] <= 0.1 * vals_c[0] and monotone
           and elapsed < 120.0)


def test_criterion_08_greedy_dominates_halton():
    density = ProductDensity.gaussian([1.0, 1.0])
    box = Box(b=[1.0, 1.0])
    init = transform(halton(16, 2), density)
    opts = OptimizerOptions(max_iters=200, grad_tol=1e-10)
    trace = optimize_greedy(16, density, box, init, opts)
    greedy_d2 = box_discrepancy_gaussian(trace.freqs, density, box).d_squared
    halton_d2 = box_discrepancy_gaussian(init, density, box).d_squared
    cauchy = ProductDensity.cauchy([1.0, 1.0])
    init_c = transform(halton(16, 2), cauchy)
    trace_c = optimize_greedy(16, cauchy, box, init_c, opts)
    greedy_c = box_discrepancy_gaussian(trace_c.freqs, cauchy, box).d_squared
    halton_c = box_discrepancy_gaussian(init_c, cauchy, box).d_squared
    _check(8, f"greedy 16-point D^2 {greedy_d2:.3e} <= halton 16-point "
              f"{halton_d2:.3e}; cauchy {greedy_c:.3e} <= {halton_c:.3e}",
           greedy_d2 <= halton_d2 and greedy_c <= halton_c)


def test_criterion_09_weighted_qp():
    density = ProductDensity.gaussian([1.0, 1.0])
    # active-set case: constrained optimum with zero weights
    box = Box(b=[1.0, 1.0])
    S = transform(halton(16, 2), density)
    xi, kkt = optimize_weights(S, density, box)
    uniform = np.full(S.s, 1.0 / S.s)
    beats_uniform = (weighted_discrepancy(S, xi, density, box)
                     <= weighted_discrepancy(S, uniform, density, box) + 1e-15)
    # interior case: the unconstrained optimum is feasible and must be hit
    box_wide = Box(b=[2.0, 2.0])
    S6 = transform(halton(6, 2), density)
    H, v = assemble_H_v(S6, density, box_wide)
    direct = np.linalg.solve(H, v)
    assert np.all(direct > 0.0)
    xi_int, kkt_int = optimize_weights(S6, density, box_wide)
    interior_match = np.max(np.abs(xi_int - direct)) <= 1e-8
    cauchy = ProductDensity.cauchy([1.0, 1.0])
    S_c = transform(halton(16, 2), cauchy)
    xi_c, kkt_c = optimize_weights(S_c, cauchy, box)
    beats_uniform_c = (weighted_discrepancy(S_c, xi_c, cauchy, box)
                       <= weighted_discrepancy(S_c, uniform, cauchy, box) + 1e-15)
    _check(9, f"weighted QP: KKT {max(kkt, kkt_int, kkt_c):.2e} <= 1e-8, beats uniform "
              f"(gaussian and cauchy), interior optimum matches H^-1 v to "
              f"{np.max(np.abs(xi_int - direct)):.1e}",
           kkt <= 1e-8 and kkt_int <= 1e-8 and kkt_c <= 1e-8 and beats_uniform
           and beats_uniform_c and interior_match)


def test_criterion_10_feature_map_identities():
    rng = np.random.default_rng(20240110)
    freqs = FrequencySet(points=rng.normal(size=(32, 3)))
    fmap = WeightedFeatureMap(freqs=freqs)
    worst_norm = 0.0
    worst_ip = 0.0
    for _ in range(1000):
        x, z = rng.normal(size=3), rng.normal(size=3)
        psi = feature_vector(fmap, x)
        worst_norm = max(worst_norm, abs(np.vdot(psi, psi).real - 1.0))
        real_ip = real_feature_vector(fmap, x) @ real_feature_vector(fmap, z)
        worst_ip = max(worst_ip, abs(real_ip - approx_kernel(fmap, x, z).real))
    _check(10, f"feature identities on 1000 pairs: |<psi,psi>-1| {worst_norm:.1e} "
               f"and |cos/sin ip - Re complex| {worst_ip:.1e} (tol 1e-12)",
           worst_norm <= 1e-12 and worst_ip <= 1e-12)


def test_criterion_11_pipeline_determinism():
    rng = np.random.default_rng(20240111)
    X = rng.standard_normal((64, 3))
    y = np.exp(-0.5 * np.sum(X ** 2, axis=1)) + rng.normal(0, 0.01, 64)
    ds = Dataset(X=X, y=y)
    cfg = ExperimentConfig(sigma=(1.0,), sequences=("halton", "mc", "weighted"),
                           s_grid=(16, 32), trials=4, seed=3, box_scale=0.5)
    serial = run_pipeline(cfg, ds, workers=1)
    parallel = run_pipeline(cfg, ds, workers=4)
    serial.pop("generated_at")
    parallel.pop("generated_at")
    _check(11, "pipeline serial vs parallel reports identical "
               f"(config hash {serial['config_hash']})",
           serial == parallel)


def test_criterion_12_krr_close_to_exact_kernel_oracle():
    # d = 2 keeps the unit-bandwidth kernel informative over standard normal
    # inputs; lambda matches the 0.01 noise level.
    rng = np.random.default_rng(20240112)
    n, d, s = 512, 2, 512
    lam = 1e-4
    X = rng.standard_normal((n, d))
    y = np.exp(-0.5 * np.sum(X ** 2, axis=1)) + rng.normal(0.0, 0.01, n)
    density = ProductDensity.gaussian(1.0, d=d)

    perm = rng.permutation(n)
    train, test = perm[:n // 2], perm[n // 2:]

    # exact-kernel ridge oracle on the same split
    from qmcrff.featmap import gram_exact

    K = gram_exact(density, X)
    K_tr = K[np.ix_(train, train)] + lam * np.eye(len(train))
    alpha = np.linalg.solve(K_tr, y[train])
    oracle_pred = K[np.ix_(test, train)] @ alpha
    oracle_err = np.linalg.norm(oracle_pred - y[test]) / np.linalg.norm(y[test])

    from qmcrff.experiment import krr_predict, krr_train, regression_error
    from qmcrff.featmap import real_feature_matrix

    fmap = WeightedFeatureMap(freqs=transform(halton(s, d), density))
    Z = real_feature_matrix(fmap, X)
    beta = krr_train(Z[train], y[train], lam)
    feat_err = regression_error(krr_predict(beta, Z[test]), y[test])
    _check(12, f"KRR with s=512 halton features: test error {feat_err:.5f} <= "
               f"1.2 x exact-kernel oracle {oracle_err:.5f}",
           feat_err <= 1.2 * oracle_err)
