import warnings

import numpy as np
import pytest

from qmcrff.densities import FrequencySet, ProductDensity, transform
from qmcrff.featmap import (
    WeightedFeatureMap,
    approx_kernel,
    feature_matrix,
    feature_vector,
    gram_approx,
    gram_exact,
    gram_norms,
    real_feature_matrix,
    real_feature_vector,
    relative_errors,
    spectral_norm,
    summarize_gram_errors,
)
from qmcrff.sequences import halton, mc_uniform


def _random_map(s, d, seed=0, weights=None):
    rng = np.random.default_rng(seed)
    freqs = FrequencySet(points=rng.normal(size=(s, d)))
    return WeightedFeatureMap(freqs=freqs, weights=weights)


class TestWeightedFeatureMap:
    def test_default_weights_uniform(self):
        m = _random_map(8, 2)
        assert np.allclose(m.weights, 1.0 / 8.0)
        assert m.weights.sum() == pytest.approx(1.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            _random_map(4, 2, weights=[0.5, 0.5, -0.1, 0.1])

    def test_unnormalized_weights_allowed(self):
        m = _random_map(3, 1, weights=[2.0, 0.0, 5.0])
        assert m.weights.sum() == 7.0


class TestFeatureVector:
    def test_self_inner_product_is_one(self):
        m = _random_map(16, 3, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(10):
            psi = feature_vector(m, rng.normal(size=3))
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)

    def test_single_zero_frequency_gives_constant_kernel(self):
        m = WeightedFeatureMap(freqs=FrequencySet(points=np.zeros((1, 2))),
                               weights=[0.7])
        rng = np.random.default_rng(3)
        for _ in range(5):
            x, z = rng.normal(size=2), rng.normal(size=2)
            assert approx_kernel(m, x, z) == pytest.approx(0.7)

    def test_zero_input_is_real(self):
        m = _random_map(6, 2, seed=4, weights=[0.1, 0.2, 0.3, 0.1, 0.05, 0.25])
        psi = feature_vector(m, np.zeros(2))
        assert np.allclose(psi.imag, 0.0)
        assert np.allclose(psi.real, np.sqrt(m.weights))


class TestRealFeatures:
    def test_inner_product_identity(self):
        m = _random_map(32, 3, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, z = rng.normal(size=3), rng.normal(size=3)
            real_ip = real_feature_vector(m, x) @ real_feature_vector(m, z)
            assert real_ip == pytest.approx(approx_kernel(m, x, z).real, abs=1e-12)

    def test_zero_input_layout(self):
        m = _random_map(4, 2, seed=7, weights=[0.4, 0.3, 0.2, 0.1])
        phi = real_feature_vector(m, np.zeros(2))
        assert np.allclose(phi[:4], np.sqrt(m.weights))
        assert np.allclose(phi[4:], 0.0)

    def test_squared_norm_is_weight_sum(self):
        m = _random_map(5, 2, seed=8, weights=[1.0, 2.0, 0.5, 0.0, 3.0])
        rng = np.random.default_rng(9)
        for _ in range(5):
            phi = real_feature_vector(m, rng.normal(size=2))
            assert phi @ phi == pytest.approx(m.weights.sum(), rel=1e-12)

    def test_matrix_rows_match_vectors(self):
        m = _random_map(6, 2, seed=10)
        X = np.random.default_rng(11).normal(size=(4, 2))
        R = real_feature_matrix(m, X)
        C = feature_matrix(m, X)
        for i, x in enumerate(X):
            # BLAS may sum a one-row product x.w in another order than a
            # four-row one, so the phases, and only they, can differ in the
            # last bit.
            assert np.allclose(R[i], real_feature_vector(m, x), rtol=0.0, atol=1e-15)
            assert np.allclose(C[i], feature_vector(m, x))
        # With dyadic inputs every phase is exact in any order, and the
        # vector is bitwise the matrix row: both are one realization.
        rng = np.random.default_rng(12)
        m = WeightedFeatureMap(freqs=FrequencySet(points=rng.integers(-64, 64, (6, 2)) / 8.0),
                               weights=rng.random(6))
        X = rng.integers(-64, 64, (4, 2)) / 16.0
        R = real_feature_matrix(m, X)
        for i, x in enumerate(X):
            assert np.array_equal(R[i], real_feature_vector(m, x))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an extended-precision long double")
    def test_entries_against_long_double_reference(self):
        # Each entry within 2 eps sqrt(xi_l) of sqrt(xi_l) times cos or sin
        # of its phase, at zero, at multiples of pi/2 and pi, for |theta| up
        # to 1e6 and for huge phases; zero weights give zero columns.  The
        # reference takes the map's own double sqrt(xi_l), whose rounding is
        # not the kernel's.
        rng = np.random.default_rng(30)
        k = np.arange(-9.0, 10.0)
        theta = np.concatenate([
            [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi],
            k * np.pi, k * np.pi / 2, 1e5 * k * np.pi,
            rng.uniform(-4.0, 4.0, 2000), rng.uniform(-1e6, 1e6, 2000),
            rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(6.0, 300.0, 200),
        ])
        # Powers of two keep every phase x.w exact.
        freqs = np.array([[1.0], [-1.0], [2.0], [0.5], [-0.25], [1.0]])
        weights = np.array([0.3, 0.0, 1.7, 1e-6, 0.2, 0.0])
        m = WeightedFeatureMap(freqs=FrequencySet(points=freqs), weights=weights)
        Z = real_feature_matrix(m, theta[:, None])
        ld = np.longdouble
        phases = theta.astype(ld)[:, None] * freqs[:, 0].astype(ld)
        root = np.sqrt(weights).astype(ld)
        tol = 2.0 * np.finfo(float).eps * np.sqrt(weights)
        assert np.all(np.abs(Z[:, :6] - root * np.cos(phases)) <= tol)
        assert np.all(np.abs(Z[:, 6:] - root * np.sin(phases)) <= tol)
        assert not Z[:, [1, 5, 7, 11]].any()


class TestApproxKernel:
    def test_hermitian(self):
        m = _random_map(8, 2, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x, z = rng.normal(size=2), rng.normal(size=2)
            assert approx_kernel(m, x, z) == pytest.approx(
                np.conj(approx_kernel(m, z, x)), abs=1e-14)

    def test_permutation_invariance(self):
        m = _random_map(10, 2, seed=14, weights=np.linspace(0.1, 1.0, 10))
        perm = np.random.default_rng(15).permutation(10)
        m2 = WeightedFeatureMap(
            freqs=FrequencySet(points=m.freqs.points[perm]),
            weights=m.weights[perm])
        x, z = np.array([0.3, -1.0]), np.array([1.2, 0.4])
        assert approx_kernel(m, x, z) == pytest.approx(approx_kernel(m2, x, z), abs=1e-14)

    def test_linear_in_weights(self):
        m = _random_map(6, 2, seed=16, weights=np.full(6, 0.25))
        m3 = WeightedFeatureMap(freqs=m.freqs, weights=3.0 * m.weights)
        x, z = np.array([0.1, 0.2]), np.array([-0.4, 0.9])
        assert approx_kernel(m3, x, z) == pytest.approx(3 * approx_kernel(m, x, z), abs=1e-13)

    def test_mc_convergence_to_exact(self):
        # Entrywise agreement with the exact kernel within 3 standard errors
        # of the feature average.
        density = ProductDensity.gaussian(1.0, d=2)
        freqs = transform(mc_uniform(20_000, 2, seed=17), density)
        m = WeightedFeatureMap(freqs=freqs)
        from qmcrff.densities import exact_kernel

        x, z = np.array([0.5, -0.2]), np.array([-0.1, 0.3])
        samples = np.cos(freqs.points @ (x - z))
        se = samples.std(ddof=1) / np.sqrt(freqs.s)
        assert abs(approx_kernel(m, x, z).real - exact_kernel(density, x, z)) <= 3 * se


class TestGram:
    def test_exact_single_row(self):
        p = ProductDensity.gaussian(1.0, d=2)
        assert np.array_equal(gram_exact(p, np.zeros((1, 2))), [[1.0]])

    def test_exact_is_psd_with_unit_diagonal(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(40, 3))
        for kernel in ("gaussian", "laplacian"):
            p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
            K = gram_exact(p, X)
            assert np.allclose(np.diag(K), 1.0)
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_exact_is_exactly_symmetric(self):
        rng = np.random.default_rng(26)
        for n, d in ((1, 1), (3, 5), (37, 2), (251, 7)):
            X = rng.normal(size=(n, d))
            for kernel in ("gaussian", "laplacian"):
                K = gram_exact(ProductDensity.for_kernel(kernel, rng.uniform(0.5, 2.0, d)), X)
                assert np.array_equal(K, K.T)

    def test_duplicated_rows_duplicate_entries(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(5, 2))
        X[3] = X[1]
        p = ProductDensity.gaussian(1.0, d=2)
        m = _random_map(8, 2, seed=20)
        for K in (gram_exact(p, X), gram_approx(m, X)):
            assert np.allclose(K[1], K[3])
            assert np.allclose(K[:, 1], K[:, 3])

    def test_approx_is_exactly_symmetric(self):
        rng = np.random.default_rng(23)
        for n, s, d in ((1, 3, 2), (40, 16, 3), (300, 128, 4)):
            X = rng.normal(size=(n, d))
            K = gram_approx(_random_map(s, d, seed=n, weights=rng.random(s)), X)
            assert np.array_equal(K, K.T)

    def test_approx_is_product_of_real_feature_matrices(self):
        m = _random_map(24, 3, seed=24)
        X = np.random.default_rng(25).normal(size=(30, 3))
        Z = real_feature_matrix(m, X)
        assert np.array_equal(gram_approx(m, X), Z @ Z.T)

    def test_approx_matches_entrywise_definition(self):
        m = _random_map(16, 2, seed=21)
        X = np.random.default_rng(22).normal(size=(6, 2))
        K = gram_approx(m, X)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(
                    approx_kernel(m, X[i], X[j]).real, abs=1e-12)

    def test_size_cap(self):
        p = ProductDensity.gaussian(1.0, d=1)
        with pytest.raises(ValueError, match="cap"):
            gram_exact(p, np.zeros((11, 1)), max_n=10)
        with pytest.raises(ValueError, match="cap"):
            gram_approx(_random_map(4, 1), np.zeros((11, 1)), max_n=10)


class TestRelativeErrors:
    def test_identical_matrices(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert relative_errors(K, K) == (0.0, 0.0)

    def test_zero_approximation(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        spec, frob = relative_errors(K, np.zeros_like(K))
        assert spec == pytest.approx(1.0, rel=1e-6)
        assert frob == pytest.approx(1.0)

    def test_hand_computed_two_by_two(self):
        K = np.eye(2)
        K_approx = np.diag([1.0, 0.0])
        spec, frob = relative_errors(K, K_approx)
        assert spec == pytest.approx(1.0, rel=1e-6)
        assert frob == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_errors(np.eye(2), np.eye(3))

    def test_precomputed_norms_give_identical_errors(self):
        X = np.random.default_rng(4).normal(size=(40, 3))
        K = gram_exact(ProductDensity.gaussian(1.5, d=3), X)
        norms = gram_norms(K)
        for seed in range(3):
            K_approx = gram_approx(_random_map(16, 3, seed=seed), X)
            assert relative_errors(K, K_approx, norms) == relative_errors(K, K_approx)

    def test_spectral_norm_against_dense_oracle(self):
        # Lanczos runs to machine precision, so the norm matches LAPACK's.
        rng = np.random.default_rng(23)
        p = ProductDensity.gaussian(1.0, d=2)
        for _ in range(5):
            K = gram_exact(p, rng.normal(size=(30, 2)))
            assert spectral_norm(K) == pytest.approx(np.linalg.norm(K, 2), rel=1e-12, abs=0.0)

    def test_spectral_norm_gapless_case_is_close(self):
        # Random symmetric matrices have no clear spectral gap; Lanczos
        # still converges to the largest-magnitude eigenvalue.
        rng = np.random.default_rng(24)
        for _ in range(5):
            A = rng.normal(size=(30, 30))
            A = 0.5 * (A + A.T)
            assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12, abs=0.0)

    def test_spectral_norm_of_gram_error_matrix(self):
        # A K - K~ error matrix as the Gram-error curves build it; power
        # iteration stopped on a 1e-6 relative change misses its norm by 3.5e-5.
        X = np.random.default_rng(0).standard_normal((150, 3))
        p = ProductDensity.gaussian(1.0, d=3)
        E = gram_exact(p, X) - gram_approx(
            WeightedFeatureMap(freqs=transform(halton(64, 3), p)), X)
        assert spectral_norm(E) == pytest.approx(np.linalg.norm(E, 2), rel=1e-12, abs=0.0)

    def test_spectral_norm_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_spectral_norm_one_by_one_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_norm(np.array([[-2.5]])) == 2.5


class TestGramErrorReport:
    def test_deterministic_sequence_has_zero_std(self):
        rep = summarize_gram_errors("halton", 64, [(0.1, 0.2)])
        assert rep.trials == 1
        assert rep.spectral_std == 0.0 and rep.frobenius_std == 0.0

    def test_aggregation(self):
        rep = summarize_gram_errors("mc", 32, [(0.1, 0.2), (0.3, 0.4)])
        assert rep.spectral_mean == pytest.approx(0.2)
        assert rep.frobenius_mean == pytest.approx(0.3)
        d = rep.to_json_dict()
        assert d["relative_frobenius"]["mean"] == pytest.approx(0.3)
