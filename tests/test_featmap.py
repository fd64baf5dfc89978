import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qmcrff._blas import syrk_lower
from qmcrff.densities import FrequencySet, ProductDensity, transform
import qmcrff.featmap as featmap_module
from qmcrff.featmap import (
    ExactGram,
    WeightedFeatureMap,
    gram_approx,
    gram_exact,
    real_feature_matrix,
    relative_errors,
    spectral_norm,
)
from qmcrff.sequences import halton, mc_uniform

from oracles import (
    approx_kernel,
    exact_kernel,
    feature_vector,
    gram_exact_reference,
    real_feature_reference,
    real_feature_vector,
)


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
        # The half-angle matrix against the oracle's rows, which call np.cos
        # and np.sin.  With dyadic inputs every phase is exact in any order,
        # so each entry is within the docstring's 2 eps sqrt(xi_l) of the
        # exact value, plus the oracle's own rounding (np.cos or np.sin,
        # then one product), allowed two ulps of its entry; over 80000 such
        # rows the excess was at most 0.27 ulp.
        eps = np.finfo(float).eps
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = WeightedFeatureMap(
                freqs=FrequencySet(points=rng.integers(-64, 64, (6, 2)) / 8.0),
                weights=rng.random(6))
            X = rng.integers(-64, 64, (40, 2)) / 16.0
            R, ref = real_feature_matrix(m, X), real_feature_reference(m, X)
            bound = 2.0 * eps * np.tile(np.sqrt(m.weights), 2)
            assert np.all(np.abs(R - ref) <= bound + 2.0 * np.spacing(np.abs(ref)))
        # Otherwise the two products may round a phase x.w differently,
        # which moves the entries by about eps |x.w| more.
        m = _random_map(6, 2, seed=10)
        X = np.random.default_rng(11).normal(size=(40, 2))
        assert np.allclose(real_feature_matrix(m, X), real_feature_reference(m, X),
                           rtol=0.0, atol=1e-15)

    def test_matrix_in_a_reused_buffer_is_bitwise_the_fresh_one(self):
        # The pipeline builds every map's Z in one buffer sized for its
        # largest map; nothing an earlier map left there may leak in.
        X = np.random.default_rng(13).normal(size=(40, 3))
        buf = np.full(2 * 40 * 32, np.nan)
        for s in (32, 5, 17):
            m = _random_map(s, 3, seed=s)
            Z = real_feature_matrix(m, X, out=buf)
            assert np.shares_memory(Z, buf)
            assert np.array_equal(Z, real_feature_matrix(m, X))

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
            assert np.array_equal(np.diag(K), np.ones(len(X)))
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_exact_is_exactly_symmetric(self):
        rng = np.random.default_rng(26)
        for n, d in ((1, 1), (3, 5), (37, 2), (251, 7)):
            X = rng.normal(size=(n, d))
            for kernel in ("gaussian", "laplacian"):
                K = gram_exact(ProductDensity.for_kernel(kernel, rng.uniform(0.5, 2.0, d)), X)
                assert np.array_equal(K, K.T)

    def test_exact_is_bitwise_the_direct_expressions(self):
        # Built in place, K is bitwise the direct expressions' matrix, also
        # with a duplicated row (zero distance) and a constant column.
        rng = np.random.default_rng(27)
        for n, d in ((1, 1), (2, 3), (37, 4), (300, 6)):
            X = rng.normal(size=(n, d))
            X[:, d // 2] = 1.7
            X[-1] = X[0]
            for kernel in ("gaussian", "laplacian"):
                p = ProductDensity.for_kernel(kernel, rng.uniform(0.5, 2.0, d))
                K = gram_exact(p, X)
                assert np.array_equal(K, gram_exact_reference(p, X))
                assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    def test_exact_gram_keeps_the_lower_triangle_and_the_full_norms(self, kernel):
        # The norms come from K's upper triangle: the spectral norm reads it
        # as the lower triangle of K.T, and ||K||_F^2 is the sum the builder
        # returns.  They are within 2 ulps of the norms of the full K.
        # Scored against a zero ZZ', E is K's lower triangle, read
        # transposed from K's upper half: its spectral norm reads the other
        # triangle's memory, so the ratio is within one ulp of 1.
        X = np.random.default_rng(28).normal(size=(150, 3))
        p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
        K, gram = gram_exact(p, X), ExactGram(p, X)
        frobenius_sq = featmap_module._exact_upper(p, X, np.empty_like(K))
        assert gram.norms == (spectral_norm(K.T), math.sqrt(frobenius_sq))
        for norm, full in zip(gram.norms, (spectral_norm(K), np.linalg.norm(K))):
            assert abs(norm - full) <= 2.0 * np.spacing(full)
        G = np.zeros_like(K)
        spectral, frobenius = gram.errors(G)
        assert np.array_equal(G, np.tril(K))
        assert abs(spectral - 1.0) <= np.spacing(1.0)
        assert frobenius == pytest.approx(1.0, rel=1e-15, abs=0.0)

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

    def test_size_cap(self, monkeypatch):
        p = ProductDensity.gaussian(1.0, d=1)
        monkeypatch.setattr(featmap_module, "_GRAM_CAP", 10)
        with pytest.raises(ValueError, match="cap"):
            gram_exact(p, np.zeros((11, 1)))
        with pytest.raises(ValueError, match="cap"):
            gram_approx(_random_map(4, 1), np.zeros((11, 1)))


def _lower_gram(G, Z):
    """G with the lower triangle of ZZ' in it, as the pipeline forms it."""
    syrk_lower(G, Z)
    return G


class TestExactGramLayout:
    # K stays in the array gram_exact built, which `gram_buffer` hands out
    # first; errors reads K transposed from its strict upper half and writes
    # E below the diagonal.

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_shared_buffer_matches_a_separate_one(self, kernel, n):
        # Across the 64-row block edges, E on the array that holds K is
        # bitwise E on a zeroed array, and both match the dense path.
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
        K, gram = gram_exact(p, X), ExactGram(p, X)
        Z = real_feature_matrix(_random_map(12, 3, seed=n, weights=rng.random(12)), X)
        shared = _lower_gram(gram.gram_buffer(), Z)
        separate = _lower_gram(np.zeros((n, n)), Z)
        errors = gram.errors(shared)
        assert gram.errors(separate) == errors
        assert np.array_equal(np.tril(shared), separate)
        assert errors == pytest.approx(relative_errors(K, Z @ Z.T), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("n", [65, 129])
    def test_upper_half_is_k_as_built(self, kernel, n):
        # K is not moved: the shared buffer's strict upper half is
        # gram_exact's own, before and after maps are scored on it.
        X = np.random.default_rng(n).normal(size=(n, 3))
        p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
        upper = np.triu(gram_exact(p, X), 1)
        gram = ExactGram(p, X)
        shared = gram.gram_buffer()
        assert np.array_equal(np.triu(shared, 1), upper)
        for s in (4, 40):
            gram.errors(_lower_gram(shared, real_feature_matrix(_random_map(s, 3, seed=s), X)))
        assert np.array_equal(np.triu(shared, 1), upper)

    def test_stored_half_is_unchanged_by_maps(self):
        # Maps scored on the shared array and on another leave K's half
        # bitwise as built, and a map scored again gives the same errors.
        X = np.random.default_rng(30).normal(size=(200, 3))
        p = ProductDensity.gaussian(1.5, d=3)
        gram = ExactGram(p, X)
        shared, other = gram.gram_buffer(), gram.gram_buffer()
        stored = np.triu(shared, 1)
        first, *rest = [real_feature_matrix(_random_map(s, 3, seed=s), X) for s in (8, 40, 96)]
        before = gram.errors(_lower_gram(shared, first))
        for Z in rest:
            gram.errors(_lower_gram(shared, Z))
            gram.errors(_lower_gram(other, Z))
        assert gram.errors(_lower_gram(shared, first)) == before
        assert gram.errors(_lower_gram(other, first)) == before
        assert np.array_equal(np.triu(shared, 1), stored)
        assert not np.triu(other, 1).any()

    @pytest.mark.parametrize("kernel", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129])
    def test_the_strict_lower_triangle_is_never_read(self, kernel, n, monkeypatch):
        # The builder leaves K's strict lower triangle as it finds it: filled
        # with NaN there, the norms and a map's errors are bitwise the same,
        # and the NaNs are still there when the first Gram buffer is handed out.
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
        Z = real_feature_matrix(_random_map(12, 3, seed=n, weights=rng.random(12)), X)
        clean = ExactGram(p, X)
        build = featmap_module._exact_upper

        def build_over_nan(density, X, K):
            K[np.tril_indices(len(K), -1)] = np.nan
            return build(density, X, K)

        monkeypatch.setattr(featmap_module, "_exact_upper", build_over_nan)
        poisoned = ExactGram(p, X)
        assert poisoned.norms == clean.norms
        shared = poisoned.gram_buffer()
        assert np.isnan(shared[np.tril_indices(n, -1)]).all()
        assert poisoned.errors(_lower_gram(shared, Z)) == clean.errors(
            _lower_gram(clean.gram_buffer(), Z))

    def test_the_array_that_holds_k_is_handed_out_once(self):
        gram = ExactGram(ProductDensity.gaussian(1.0, d=2),
                         np.random.default_rng(31).normal(size=(70, 2)))
        buffers = [gram.gram_buffer() for _ in range(3)]
        assert [np.triu(b, 1).any() for b in buffers] == [True, False, False]
        assert not any(b.any() for b in buffers[1:])
        assert not np.shares_memory(buffers[1], buffers[2])

    def test_errors_rejects_a_buffer_of_another_size(self):
        gram = ExactGram(ProductDensity.gaussian(1.0, d=2), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="shape"):
            gram.errors(np.zeros((6, 6)))


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
        # ARPACK stops on a zero matrix without a warning; the norm is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 4, 5, 300):
                assert spectral_norm(np.zeros((n, n))) == 0.0

    def test_spectral_norm_reraises_arpack_errors_on_nonzero_matrices(self, monkeypatch):
        import scipy.sparse.linalg

        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        assert spectral_norm(np.zeros((3, 3))) == 0.0
        with pytest.raises(scipy.sparse.linalg.ArpackError):
            spectral_norm(np.eye(3))

    def test_spectral_norm_one_by_one_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectral_norm(np.array([[-2.5]])) == 2.5

    def test_spectral_norm_reads_the_lower_triangle_only(self):
        rng = np.random.default_rng(29)
        for n in (2, 30, 300):
            A = rng.normal(size=(n, n))
            B = np.tril(A)
            B[np.triu_indices(n, 1)] = np.nan
            symmetrized = np.tril(A) + np.tril(A, -1).T
            assert spectral_norm(B) == pytest.approx(
                np.linalg.norm(symmetrized, 2), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("A", [np.ones(4), np.ones((2, 3)), np.ones((2, 2, 2)), 1.0])
    def test_spectral_norm_rejects_non_square_input(self, A):
        with pytest.raises(ValueError, match="shape"):
            spectral_norm(A)

    @pytest.mark.parametrize("K, K_approx", [
        (np.ones(4), np.ones(4)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
        (np.eye(3), np.eye(3)[:2]),
    ])
    def test_relative_errors_rejects_bad_shapes(self, K, K_approx):
        with pytest.raises(ValueError, match="shape"):
            relative_errors(K, K_approx)


def _traced_peak(f):
    """Peak traced bytes of a call to f; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGramMemory:
    # gram_exact holds K and one row block; the pipeline holds one
    # workspace per worker, the first of which holds K.  A first run traces
    # one-off scipy imports (about 27 MB), so peaks are taken after one.
    N = 600

    def _assert_gram_exact_peak(self, kernel):
        # Both kernels' exponents are formed in row blocks: K plus one block.
        X = np.random.default_rng(0).normal(size=(self.N, 3))
        p = ProductDensity.for_kernel(kernel, [1.0, 2.0, 0.5])
        _traced_peak(lambda: gram_exact(p, X))
        assert _traced_peak(lambda: gram_exact(p, X)) <= 1.2 * self.N ** 2 * 8

    def test_gram_exact_gaussian_peak(self):
        self._assert_gram_exact_peak("gaussian")

    def test_gram_exact_peak(self):
        self._assert_gram_exact_peak("laplacian")

    def test_pipeline_peak(self):
        from qmcrff.experiment import Dataset, ExperimentConfig, run_pipeline

        # A pipeline run holds, per worker, its workspace: the n x n Gram
        # buffer (n^2), the first of which also holds K in its upper half,
        # and one buffer for Z's chunks, Z whole where the primal ridge
        # reads it, and the dual ridge factor (at most 2 n s_max here).  On
        # top of that, one map at a time per worker builds its discrepancy
        # pass's blocks or its primal ridge system (at most (2 s_max)^2,
        # 0.01 n^2 here); 0.1 n^2 covers either.  0.1 n^2 more covers the
        # row block gram_exact forms K with, K's diagonal kept aside, and
        # small arrays.  The first config solves primal ridge systems only;
        # the second, with n_train = 300, takes the dual one at s = 160.
        # Measured peaks: 1.12/2.22 and 1.21/2.40 x n^2 * 8 B at 1/2
        # workers.
        n = 1500
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.normal(size=(n, 2)), y=rng.normal(size=n))
        configs = [ExperimentConfig(sequences=("halton", "mc"), s_grid=(4, 64), trials=2),
                   ExperimentConfig(sequences=("halton", "mc"), s_grid=(4, 160), trials=2,
                                    split=0.2)]
        _traced_peak(lambda: run_pipeline(configs[1], ds))
        for cfg in configs:
            s_max = max(cfg.s_grid)
            for workers in (1, 2):
                peak = _traced_peak(lambda: run_pipeline(cfg, ds, workers=workers))
                assert peak <= (0.1 + workers * (1.1 + 2 * s_max / n)) * n ** 2 * 8

    def test_pipeline_peak_does_not_grow_with_s(self):
        from qmcrff.experiment import Dataset, ExperimentConfig, run_pipeline

        # At s = 1024 > n the whole Z would be 2 s n = 3.4 n^2 doubles.  Per
        # worker the pipeline holds its Gram buffer (n^2) and a workspace of
        # max(256 n, n_train^2) = 0.43 n^2 doubles, which takes Z's
        # 256-column chunks and the dual ridge factor in turn; 0.17 n^2
        # more per worker covers its discrepancy pass and small arrays, and
        # 0.3 n^2 the rest.  Measured peaks: 1.64/3.26 n^2 * 8 B at 1/2
        # workers; a workspace holding Z whole reads 4.86/9.39.
        n = self.N
        rng = np.random.default_rng(2)
        ds = Dataset(X=rng.normal(size=(n, 2)), y=rng.normal(size=n))
        cfg = ExperimentConfig(sequences=("halton", "mc"), s_grid=(4, 1024), trials=2,
                               split=0.5)
        _traced_peak(lambda: run_pipeline(cfg, ds))
        for workers in (1, 2):
            peak = _traced_peak(lambda: run_pipeline(cfg, ds, workers=workers))
            assert peak <= (0.3 + 1.6 * workers) * n ** 2 * 8
