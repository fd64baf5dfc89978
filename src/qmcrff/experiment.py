"""The paper's experiments as library functions: dataset ingestion,
bounding-box estimation, sequence generation, Gram-error curves, and
ridge regression on the feature-mapped data.  `run_pipeline` runs them
all over a (sequence, s) grid; `qmcrff.cli` is the command-line layer
over this module.
"""

import hashlib
import json
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .adaptive import OptimizerOptions, optimize_global, optimize_greedy, optimize_weights
from .densities import ProductDensity, transform
from .discrepancy import Box, box_discrepancy_gaussian, weighted_discrepancy
from .featmap import (
    WeightedFeatureMap,
    gram_exact,
    gram_norms,
    real_feature_matrix,
    relative_errors,
    summarize_gram_errors,
)
from .ioutil import DataError, NumericalError, read_matrix_csv
from .sequences import halton, lattice, mc_uniform

BASE_SEQUENCES = ("halton", "halton-scrambled", "lattice", "mc")
PIPELINE_SEQUENCES = BASE_SEQUENCES + ("adaptive-global", "adaptive-greedy", "weighted")

DEFAULT_KOROBOV_A = 1571


@dataclass
class Dataset:
    """Numeric design matrix with an optional target column."""

    X: np.ndarray
    y: np.ndarray = None
    column_stats: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise DataError("dataset must be a 2-D matrix")
        if not np.all(np.isfinite(self.X)):
            raise DataError("dataset contains non-finite entries")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float)
            if self.y.shape != (self.X.shape[0],):
                raise DataError("target length must match the number of rows")
            if not np.all(np.isfinite(self.y)):
                raise DataError("target contains non-finite entries")
        if not self.column_stats:
            self.column_stats = [
                {"min": float(c.min()), "max": float(c.max()),
                 "mean": float(c.mean()), "std": float(c.std())}
                for c in self.X.T
            ]

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


def load_csv(path, has_target, skip_header=False):
    """Read a comma-separated numeric file; the last column becomes the
    target when ``has_target``. Malformed rows fail with their line number."""
    M = read_matrix_csv(path, skip_header=skip_header)
    if has_target:
        if M.shape[1] < 2:
            raise DataError(f"{path}: need at least two columns to split off a target")
        return Dataset(X=M[:, :-1], y=M[:, -1])
    return Dataset(X=M)


def estimate_box(ds, box_scale=1.0):
    """Per-feature half-widths from observed ranges: b_j = max_j - min_j.

    This is the exact supremum of |x_j - z_j| over data pairs.  Constant
    features get the degenerate width 1e-12 and a warning.
    """
    if ds.n < 2:
        raise DataError(f"estimate_box requires at least 2 rows, got {ds.n}")
    b = ds.X.max(axis=0) - ds.X.min(axis=0)
    flat = b <= 0.0
    if flat.any():
        warnings.warn(
            f"{int(flat.sum())} constant feature(s); using degenerate half-width 1e-12",
            RuntimeWarning,
        )
        b = np.where(flat, 1e-12, b)
    return Box(b=b * box_scale)


def korobov_vector(s, d, a=DEFAULT_KOROBOV_A):
    """Default rank-1 generating vector (1, a, a^2, ...) mod s."""
    if s < 1:
        raise ValueError(f"korobov_vector requires s >= 1, got {s}")
    if d < 1:
        raise ValueError(f"korobov_vector requires d >= 1, got {d}")
    z = np.empty(d, dtype=np.int64)
    z[0] = 1 % s if s > 1 else 0
    for j in range(1, d):
        z[j] = (z[j - 1] * a) % s
    return z


def make_pointset(seq, s, d, seed=0, start_index=1, generating_vector=None):
    """Unit-cube point set for one of the base sequence names."""
    if seq == "halton":
        return halton(s, d, scramble=False, start_index=start_index)
    if seq == "halton-scrambled":
        return halton(s, d, scramble=True, start_index=start_index)
    if seq == "lattice":
        z = korobov_vector(s, d) if generating_vector is None else generating_vector
        return lattice(s, d, z)
    if seq == "mc":
        return mc_uniform(s, d, seed)
    raise ValueError(f"unknown sequence {seq!r}; valid names: {', '.join(BASE_SEQUENCES)}")


def _cell_seed(*parts):
    return np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0]


@dataclass
class ExperimentConfig:
    """Settings for the Gram-error and pipeline experiments."""

    kernel: str = "gaussian"
    sigma: tuple = (1.0,)
    sequences: tuple = ("halton", "mc")
    s_grid: tuple = (64, 256)
    trials: int = 10
    box_scale: float = 1.0
    ridge_lambda: float = 1e-6
    split: float = 0.5
    seed: int = 0
    max_n: int = 2000
    adapt_iters: int = 50

    def __post_init__(self):
        if self.kernel not in ("gaussian", "laplacian"):
            raise ValueError(f"unknown kernel {self.kernel!r}; valid: gaussian, laplacian")
        bad = [q for q in self.sequences if q not in PIPELINE_SEQUENCES]
        if bad:
            raise ValueError(
                f"unknown sequence name(s) {bad}; valid names: {', '.join(PIPELINE_SEQUENCES)}"
            )
        if not self.sequences:
            raise ValueError("sequences must name at least one sequence")
        if len(set(self.sequences)) < len(self.sequences):
            raise ValueError(f"sequences must not repeat a name, got {list(self.sequences)}")
        if not self.s_grid:
            raise ValueError("s_grid must hold at least one value")
        if min(self.s_grid) < 1:
            raise ValueError(f"s_grid values must be >= 1, got {list(self.s_grid)}")
        if any(a >= b for a, b in zip(self.s_grid, self.s_grid[1:])):
            raise ValueError(f"s_grid must be strictly ascending, got {list(self.s_grid)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split fraction must lie in (0, 1)")
        if self.box_scale <= 0.0:
            raise ValueError("box_scale must be positive")
        if self.ridge_lambda <= 0.0:
            raise ValueError("ridge lambda must be positive")
        if self.max_n < 2:
            raise ValueError(f"max_n must be >= 2, got {self.max_n}")
        if self.adapt_iters < 0:
            raise ValueError(f"adapt_iters must be >= 0, got {self.adapt_iters}")

    def to_json_dict(self):
        return {
            "kernel": self.kernel,
            "sigma": [float(v) for v in self.sigma],
            "sequences": list(self.sequences),
            "s_grid": [int(v) for v in self.s_grid],
            "trials": self.trials,
            "box_scale": self.box_scale,
            "ridge_lambda": self.ridge_lambda,
            "split": self.split,
            "seed": self.seed,
            "max_n": self.max_n,
            "adapt_iters": self.adapt_iters,
        }

    def hash(self):
        canon = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _subsample(ds, max_n, seed):
    if ds.n <= max_n:
        return ds
    rng = np.random.Generator(np.random.PCG64(_cell_seed(seed, 0x5AB5)))
    idx = rng.choice(ds.n, size=max_n, replace=False)
    idx.sort()
    y = ds.y[idx] if ds.y is not None else None
    return Dataset(X=ds.X[idx], y=y)


def _frequency_maps_for_cell(cfg, density, box, seq, s, d):
    """All (FrequencySet, weights) trials for one grid cell.

    Deterministic sequences produce a single trial; mc produces
    cfg.trials independently seeded ones.  Seeds depend only on the
    configuration and cell coordinates, never on execution order.
    """
    if seq == "mc":
        out = []
        for t in range(cfg.trials):
            seed = _cell_seed(cfg.seed, zlib.crc32(seq.encode()), s, t)
            pts = mc_uniform(s, d, seed)
            out.append((transform(pts, density), None))
        return out
    if seq in ("halton", "halton-scrambled", "lattice"):
        return [(transform(make_pointset(seq, s, d), density), None)]

    if density.kind != "gaussian":
        raise ValueError(f"adaptive sequence {seq!r} requires the gaussian kernel")
    base = transform(halton(s, d), density)
    if seq == "adaptive-global":
        opts = OptimizerOptions(max_iters=cfg.adapt_iters)
        return [(optimize_global(base, density, box, opts).freqs, None)]
    if seq == "adaptive-greedy":
        opts = OptimizerOptions(max_iters=200, grad_tol=1e-10)
        return [(optimize_greedy(s, density, box, base, opts).freqs, None)]
    if seq == "weighted":
        xi, _ = optimize_weights(base, density, box)
        return [(base, xi)]
    raise ValueError(f"unknown sequence {seq!r}")


def _mean_std(values):
    return {"mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0}


def _gram_cell(cfg, density, box, X, K, K_norms, seq, s, with_discrepancy=False,
               ridge=None):
    """Gram errors, optional discrepancies and optional ridge errors for one
    (sequence, s) cell; ``K_norms`` is ``gram_norms(K)``.

    Each map's real feature matrix Z is built once.  It gives K~ = ZZ' and,
    when ``ridge`` is ``(y, train_idx, test_idx)``, trains and scores a ridge
    model before the next map's Z is built.
    """
    pairs = []
    discrepancies = []
    errs = []
    for freqs, weights in _frequency_maps_for_cell(cfg, density, box, seq, s, X.shape[1]):
        Z = real_feature_matrix(WeightedFeatureMap(freqs=freqs, weights=weights), X)
        pairs.append(relative_errors(K, Z @ Z.T, K_norms))
        if ridge is not None:
            y, train_idx, test_idx = ridge
            beta = krr_train(Z[train_idx], y[train_idx], cfg.ridge_lambda)
            errs.append(regression_error(krr_predict(beta, Z[test_idx]), y[test_idx]))
        del Z  # one n x 2s matrix alive at a time
        if with_discrepancy and density.kind == "gaussian":
            if weights is None:
                discrepancies.append(
                    box_discrepancy_gaussian(freqs, density, box).d_squared)
            else:
                discrepancies.append(
                    weighted_discrepancy(freqs, weights, density, box))
    report = summarize_gram_errors(seq, s, pairs)
    cell = report.to_json_dict()
    if discrepancies:
        cell["discrepancy"] = {**_mean_std(discrepancies), "box_scale": cfg.box_scale}
    if errs:
        cell["regression_error"] = _mean_std(errs)
    return cell


def _prologue(cfg, ds):
    """The subsampled data, its density and box, the exact Gram matrix K
    and K's norms, which every cell of an experiment shares."""
    work = _subsample(ds, cfg.max_n, cfg.seed)
    density = ProductDensity.for_kernel(cfg.kernel, cfg.sigma, work.d)
    box = estimate_box(work, cfg.box_scale)
    K = gram_exact(density, work.X)
    return work, density, box, K, gram_norms(K)


def run_gram_experiment(cfg, ds):
    """Gram-error curves over the (sequence, s) grid; JSON-ready reports."""
    work, density, box, K, K_norms = _prologue(cfg, ds)
    return [_gram_cell(cfg, density, box, work.X, K, K_norms, seq, s)
            for seq in cfg.sequences for s in cfg.s_grid]


def krr_train(Z, y, ridge_lambda):
    """Ridge solution of (Z'Z + lambda I) beta = Z'y by Cholesky.

    A wide Z (fewer rows than columns) solves the smaller dual system
    (ZZ' + lambda I) alpha = y instead and returns beta = Z'alpha, the same
    beta by the push-through identity.

    The factorization runs on numpy's LAPACK, in the OpenBLAS that formed
    the matrix.  scipy bundles a second OpenBLAS; on few cores its threads
    contend with numpy's, which spin for a while after each call, and a
    scipy Cholesky right after numpy's product stalled for up to ~0.1 s on
    2 vCPUs.  The triangular solves act on one vector and stay on scipy.
    `optimize_global` makes many small BLAS calls in scipy's pool, so it
    holds that pool at one thread while it runs; see
    `_scipy_blas_single_thread` in `qmcrff.adaptive`.
    """
    # Imported here: scipy.linalg is slow to import and the CLI's
    # sequence commands never solve.
    from scipy.linalg import solve_triangular

    if ridge_lambda <= 0.0:
        raise ValueError("ridge lambda must be positive")
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    dual = Z.shape[0] < Z.shape[1]
    A = Z @ Z.T if dual else Z.T @ Z
    A[np.diag_indices_from(A)] += ridge_lambda
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "ridge system could not be factorized; try a larger --lambda"
        ) from exc
    x = solve_triangular(L, y if dual else Z.T @ y, lower=True)
    x = solve_triangular(L, x, lower=True, trans="T")
    return Z.T @ x if dual else x


def krr_predict(beta, Z):
    return np.asarray(Z, dtype=float) @ beta


def regression_error(y_hat, y):
    """Relative l2 error, or absolute when the reference is all-zero."""
    norm = float(np.linalg.norm(y))
    err = float(np.linalg.norm(y_hat - y))
    return err / norm if norm > 0.0 else err


def _split_indices(n, split, seed):
    """Seeded (train, test) index split; both parts are nonempty."""
    if not 0.0 < split < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    if n < 2:
        raise DataError(f"a train/test split requires at least 2 rows, got {n}")
    rng = np.random.Generator(np.random.PCG64(_cell_seed(seed, 0x5917)))
    perm = rng.permutation(n)
    n_train = max(1, min(n - 1, int(round(split * n))))
    return perm[:n_train], perm[n_train:]


def run_pipeline(cfg, ds, workers=1):
    """End-to-end experiment: sequences -> transforms -> features ->
    Gram errors, discrepancies, and (when a target is present) ridge
    regression.  Deterministic for a fixed config and seed regardless of
    the worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    work, density, box, K, K_norms = _prologue(cfg, ds)
    ridge = None
    if work.y is not None:
        ridge = (work.y, *_split_indices(work.n, cfg.split, cfg.seed))

    def run_cell(args):
        seq, s = args
        return _gram_cell(cfg, density, box, work.X, K, K_norms, seq, s,
                          with_discrepancy=True, ridge=ridge)

    grid = [(seq, s) for seq in cfg.sequences for s in cfg.s_grid]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, grid))
    else:
        cells = [run_cell(g) for g in grid]

    return {
        "config": cfg.to_json_dict(),
        "config_hash": cfg.hash(),
        "n": work.n,
        "d": work.d,
        "box": [float(v) for v in box.b],
        "cells": cells,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
