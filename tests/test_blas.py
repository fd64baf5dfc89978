"""The symmetric BLAS and LAPACK binding behind the Gram-error and ridge
stages: which library it binds, its two routes, the lower-triangle contract
and its input guards; and the guard that holds scipy's bundled OpenBLAS at
one thread."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import qmcrff
import qmcrff._blas as blas
from qmcrff.adaptive import OptimizerOptions, optimize_global
from qmcrff.densities import ProductDensity, transform
from qmcrff.discrepancy import Box
from qmcrff.cli import main
from qmcrff.experiment import _ridge_solve
from qmcrff.featmap import ExactGram, WeightedFeatureMap, real_feature_matrix
from qmcrff.ioutil import NumericalError
from qmcrff.sequences import halton


@pytest.fixture(params=["numpy-openblas", "scipy-blas"])
def route(request, monkeypatch):
    """Run the test on the ctypes route and again on scipy's wrappers."""
    if request.param == "scipy-blas":
        monkeypatch.setattr(blas, "_kernels", blas._scipy_kernels)
    return request.param


def _symmetric(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return A + A.T


def _nan_above(A):
    B = A.copy()
    B[np.triu_indices(A.shape[0], 1)] = np.nan
    return B


def test_binds_numpy_bundled_openblas():
    # numpy's wheel links its own ILP64 OpenBLAS; the kernels must come from
    # it, so that they run in numpy's thread pool and the benchmark measures
    # the ctypes route.
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas":
        pytest.skip("numpy is not built on the bundled scipy-openblas")
    assert blas.bundled_openblas("numpy", "scipy_cblas_dsyrk64_") is not None
    assert blas._kernels() != blas._scipy_kernels()


def test_import_resolves_no_library():
    code = ("import json, sys\n"
            "import qmcrff, qmcrff._blas as b\n"
            "print(json.dumps([b._kernels.cache_info().currsize,"
            " b.bundled_openblas.cache_info().currsize,"
            " [m for m in sys.modules if m.startswith('scipy')]]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qmcrff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == [0, 0, []]


@pytest.mark.parametrize("n, k", [(1, 3), (5, 1), (64, 8), (300, 200)])
def test_syrk_writes_the_lower_triangle_only(route, n, k):
    # The old lower triangle is not read: NaNs there are overwritten.
    Z = np.random.default_rng(n + k).normal(size=(n, k))
    C = np.full((n, n), np.nan)
    blas.syrk_lower(C, Z)
    lower = np.tril_indices(n)
    assert np.allclose(C[lower], (Z @ Z.T)[lower], rtol=0.0, atol=1e-12)
    assert np.isnan(C[np.triu_indices(n, 1)]).all()


@pytest.mark.parametrize("n", [1, 7, 300])
def test_symv_reads_the_lower_triangle_only(route, n):
    A = _symmetric(n, n)
    x = np.random.default_rng(n).normal(size=n)
    y = blas.symv_lower(_nan_above(A), x)
    assert np.allclose(y, A @ x, rtol=0.0, atol=1e-12)


def test_routes_give_the_same_gram_errors(monkeypatch):
    X = np.random.default_rng(3).normal(size=(200, 3))
    density = ProductDensity.gaussian(1.5, d=3)
    gram = ExactGram(density, X)
    Z = real_feature_matrix(WeightedFeatureMap(freqs=transform(halton(48, 3), density)), X)

    def errors():
        G = np.zeros((200, 200))
        blas.syrk_lower(G, Z)
        return gram.errors(G)

    fast = errors()
    monkeypatch.setattr(blas, "_kernels", blas._scipy_kernels)
    assert errors() == pytest.approx(fast, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, k", [(1, 3), (5, 1), (64, 8), (300, 200)])
def test_syrk_reads_fortran_ordered_factors(route, n, k):
    # The pipeline's feature matrices are Fortran-ordered; the ctypes route
    # reads them in place as their row-major transpose.
    Z = np.asfortranarray(np.random.default_rng(n * k).normal(size=(n, k)))
    C = np.full((n, n), np.nan)
    blas.syrk_lower(C, Z)
    lower = np.tril_indices(n)
    assert np.allclose(C[lower], (Z @ Z.T)[lower], rtol=0.0, atol=1e-12)
    assert np.isnan(C[np.triu_indices(n, 1)]).all()


@pytest.mark.parametrize("n, k", [(1, 3), (5, 1), (64, 8), (300, 200)])
def test_syrk_accumulates_column_blocks(route, n, k):
    # ZZ' summed from column blocks of a Fortran-ordered Z, as the Gram
    # stage adds its feature chunks; the strict upper triangle stays NaN.
    Z = np.asfortranarray(np.random.default_rng(n + 2 * k).normal(size=(n, k)))
    C = np.full((n, n), np.nan)
    for i, c in enumerate(range(0, k, 3)):
        blas.syrk_lower(C, Z[:, c:c + 3], accumulate=i > 0)
    lower = np.tril_indices(n)
    assert np.allclose(C[lower], (Z @ Z.T)[lower], rtol=0.0, atol=1e-12)
    assert np.isnan(C[np.triu_indices(n, 1)]).all()


def _positive_definite(n, seed):
    M = np.random.default_rng(seed).normal(size=(n, n + 3))
    return M @ M.T + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_cholesky_reads_and_writes_the_lower_triangle_only(route, n):
    # A NaN upper triangle is never read, and stays NaN; the factor and the
    # solution match dense references to 1e-12 relative.
    A = _positive_definite(n, n)
    b = np.random.default_rng(n + 1).normal(size=n)
    L = _nan_above(A)
    blas.potrf_lower(L)
    assert np.isnan(L[np.triu_indices(n, 1)]).all()
    ref = np.linalg.cholesky(A)
    assert np.abs(np.tril(L) - ref).max() <= 1e-12 * np.abs(ref).max()
    b_before = b.copy()
    x = blas.potrs_lower(L, b)
    assert np.array_equal(b, b_before)
    ref = np.linalg.solve(A, b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def test_routes_give_the_same_ridge_solution(monkeypatch):
    A = _positive_definite(120, 5)
    b = np.random.default_rng(6).normal(size=120)
    fast = _ridge_solve(A, b, 1e-3, np.empty_like(A))
    monkeypatch.setattr(blas, "_kernels", blas._scipy_kernels)
    assert _ridge_solve(A, b, 1e-3, np.empty_like(A)) == pytest.approx(fast, rel=1e-12, abs=1e-12)


class TestNotPositiveDefinite:
    def test_potrf_raises_linalg_error(self, route):
        A = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="order 2"):
            blas.potrf_lower(A)

    def test_ridge_solve_raises_numerical_error(self, route):
        # An indefinite lower triangle that lambda does not repair.
        A = np.array([[1.0, np.nan], [3.0, 1.0]])
        with pytest.raises(NumericalError, match="larger --lambda"):
            _ridge_solve(A, np.ones(2), 1e-6, np.empty_like(A))

    def test_krr_exits_4(self, tmp_path, capsys, monkeypatch):
        # All-ones features at s = 8 make the dual system 16 times a matrix
        # of ones, of rank 1: its second pivot is 16 - 4 * 4 = 0 exactly,
        # and lambda = 1e-300 vanishes beside 16.
        monkeypatch.setattr("qmcrff.cli.real_feature_matrix",
                            lambda fmap, X: np.ones((X.shape[0], 2 * fmap.s)))
        data = tmp_path / "xy.csv"
        data.write_text("\n".join(f"{i},{i % 3},{i * i % 5}" for i in range(10)) + "\n")
        assert main(["krr", "--data", str(data), "--s", "8", "--lambda", "1e-300"]) == 4
        assert "numerical failure" in capsys.readouterr().err


class TestGuards:
    # Every argument is checked before the foreign call, so a bad one raises
    # ValueError instead of reading or writing out of bounds.
    @pytest.mark.parametrize("C", [
        np.zeros(4),
        np.zeros((3, 4)),
        np.zeros((2, 2, 2)),
        np.zeros((4, 4), dtype=np.float32),
        np.zeros((4, 4), order="F"),
        np.zeros((4, 8))[:, ::2],
        [[0.0, 0.0], [0.0, 0.0]],
    ])
    def test_syrk_rejects_bad_outputs(self, C):
        with pytest.raises(ValueError):
            blas.syrk_lower(C, np.ones((len(C), 2)))

    @pytest.mark.parametrize("Z", [np.ones((3, 2)), np.ones(4), np.ones((4, 2, 1))])
    def test_syrk_rejects_mismatched_factors(self, Z):
        C = np.zeros((4, 4))
        with pytest.raises(ValueError, match="shape"):
            blas.syrk_lower(C, Z)
        assert not C.any()

    @pytest.mark.parametrize("A", [np.zeros(4), np.zeros((4, 3)), np.zeros((4, 4), order="F")])
    def test_symv_rejects_bad_matrices(self, A):
        with pytest.raises(ValueError):
            blas.symv_lower(A, np.ones(4))

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((4, 1)), np.ones((2, 2))])
    def test_symv_rejects_mismatched_vectors(self, x):
        with pytest.raises(ValueError, match="shape"):
            blas.symv_lower(np.eye(4), x)

    @pytest.mark.parametrize("A", [np.zeros(4), np.zeros((4, 3)), np.zeros((4, 4), order="F"),
                                   np.zeros((4, 4), dtype=np.float32), np.eye(8)[::2, ::2]])
    def test_potrf_rejects_bad_matrices(self, A):
        before = A.copy()
        with pytest.raises(ValueError):
            blas.potrf_lower(A)
        assert np.array_equal(A, before)

    @pytest.mark.parametrize("b", [np.ones(3), np.ones((4, 1)), np.ones((2, 2))])
    def test_potrs_rejects_mismatched_vectors(self, b):
        L, before = np.eye(4), b.copy()
        with pytest.raises(ValueError, match="shape"):
            blas.potrs_lower(L, b)
        assert np.array_equal(L, np.eye(4)) and np.array_equal(b, before)

    def test_potrs_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            blas.potrs_lower(np.eye(4, dtype=np.float32), np.ones(4))

    def test_factors_and_vectors_of_other_layouts_are_copied(self):
        # Only the output and the matrix must be float64 and C-ordered; a
        # factor that is neither C- nor Fortran-contiguous, and the vector,
        # are converted.
        Z = np.arange(16.0).reshape(4, 4)[:, ::2]
        C = np.zeros((4, 4))
        blas.syrk_lower(C, Z)
        assert np.allclose(np.tril(C), np.tril(Z @ Z.T))
        assert np.allclose(blas.symv_lower(np.eye(4), np.arange(8)[::2]), [0, 2, 4, 6])


@pytest.fixture
def scipy_blas():
    """scipy's bundled OpenBLAS, set to two threads for the test."""
    lib = blas.bundled_openblas("scipy", "scipy_openblas_set_num_threads")
    if lib is None:
        pytest.skip("scipy bundles no OpenBLAS of its own; it shares numpy's BLAS")
    saved = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(2)
    yield lib
    lib.scipy_openblas_set_num_threads(saved)


class TestScipyBlasScope:
    def test_one_thread_inside_restored_after(self, scipy_blas):
        with blas._scipy_blas_single_thread():
            assert scipy_blas.scipy_openblas_get_num_threads() == 1
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    def test_restored_when_body_raises(self, scipy_blas):
        with pytest.raises(RuntimeError):
            with blas._scipy_blas_single_thread():
                raise RuntimeError("body failed")
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    def test_overlapping_threads_restore_once(self, scipy_blas):
        # a enters, b enters, a leaves, b leaves.  The count must stay 1
        # until the last exit and then return to 2, not to the 1 a second
        # save would have read.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with blas._scipy_blas_single_thread():
                a_in.set()
                seen["b entered"] = b_in.wait(5)
            a_out.set()

        def b():
            seen["a entered"] = a_in.wait(5)
            with blas._scipy_blas_single_thread():
                b_in.set()
                seen["a left"] = a_out.wait(5)
                seen["threads"] = scipy_blas.scipy_openblas_get_num_threads()

        threads = [threading.Thread(target=a), threading.Thread(target=b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(10)
            assert not th.is_alive()
        assert seen == {"a entered": True, "b entered": True, "a left": True, "threads": 1}
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    def test_many_threads_keep_one_thread_inside(self, scipy_blas):
        inside = []

        def work():
            for _ in range(200):
                with blas._scipy_blas_single_thread():
                    inside.append(scipy_blas.scipy_openblas_get_num_threads())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert inside == [1] * 1600
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    def test_without_bundled_library_does_nothing(self, scipy_blas, monkeypatch):
        monkeypatch.setattr(blas, "bundled_openblas", lambda package, symbol: None)
        with blas._scipy_blas_single_thread():
            assert scipy_blas.scipy_openblas_get_num_threads() == 2
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    def test_optimize_global_restores_the_count(self, scipy_blas):
        p = ProductDensity.gaussian(1.0, d=2)
        box = Box(b=[1.0, 1.0])
        trace = optimize_global(transform(halton(8, 2), p), p, box,
                                OptimizerOptions(max_iters=10))
        assert trace.n_iters > 0
        assert scipy_blas.scipy_openblas_get_num_threads() == 2
