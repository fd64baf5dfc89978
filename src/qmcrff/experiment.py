"""The paper's experiments as library functions: dataset ingestion,
bounding-box estimation, sequence generation, Gram-error curves, and
ridge regression on the feature-mapped data.  `run_pipeline` runs them
all over a (sequence, s) grid; `qmcrff.cli` is the command-line layer
over this module.
"""

import hashlib
import json
import threading
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from ._blas import potrf_lower, potrs_lower, syrk_lower
from .adaptive import OptimizerOptions, optimize_global, optimize_greedy, optimize_weights
from .densities import KERNELS, FrequencySet, ProductDensity, transform
from .discrepancy import Box, box_discrepancy_gaussian, weighted_discrepancy
from .featmap import ExactGram, WeightedFeatureMap, real_feature_matrix
from .ioutil import DataError, NumericalError, read_matrix_csv
from .sequences import UNIT_SEQUENCES, halton

# The pipeline's sequences beside `UNIT_SEQUENCES`: each maps the Halton
# frequencies ``base`` of its s, density, box and opts to one trial's
# (frequencies, weights), looking its optimizer up in this module at call time.
ADAPTIVE_SEQUENCES = {
    "adaptive-global": lambda base, density, box, opts: (
        optimize_global(base, density, box, opts).freqs, None),
    "adaptive-greedy": lambda base, density, box, opts: (
        optimize_greedy(base.s, density, box, base, opts).freqs, None),
    "weighted": lambda base, density, box, opts: (base, optimize_weights(base, density, box)[0]),
}

# Frequencies per chunk of a feature matrix that `_gram_cell` adds into ZZ':
# 256 columns of Z.  At n = 1000 and 2s = 1024 the four chunked rank-k
# updates take as long as one (8.56 against 8.53 ms, 2 vCPUs); 128-column
# chunks took 8.85 ms.
_CHUNK_FREQS = 128


@dataclass
class Dataset:
    """Numeric design matrix with an optional target column."""

    X: np.ndarray
    y: np.ndarray = None

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
    return Box(b=b).scaled(box_scale)


def _cell_seed(*parts):
    return np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0]


@dataclass
class ExperimentConfig:
    """Settings for the Gram-error and pipeline experiments, and the one
    source of the CLI's defaults for them: an omitted flag keeps the default
    here.  ``adapt_iters`` caps both adaptive optimizers, L-BFGS-B in
    adaptive-global and each inner conjugate-gradient solve in adaptive-greedy."""

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
        self.sigma = tuple(float(v) for v in self.sigma)
        self.sequences = tuple(self.sequences)
        self.s_grid = tuple(int(v) for v in self.s_grid)
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; valid: {', '.join(KERNELS)}")
        valid = (*UNIT_SEQUENCES, *ADAPTIVE_SEQUENCES)
        bad = [q for q in self.sequences if q not in valid]
        if bad:
            raise ValueError(f"unknown sequence name(s) {bad}; valid names: {', '.join(valid)}")
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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

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

    A unit-cube sequence that reads a seed produces cfg.trials independently
    seeded trials, any other a single one.  Seeds depend only on the
    configuration and cell coordinates, never on execution order.  Each
    `ADAPTIVE_SEQUENCES` entry starts from Halton under ``cfg.adapt_iters``.
    """
    if seq in ADAPTIVE_SEQUENCES:
        base = transform(halton(s, d), density)
        opts = OptimizerOptions(max_iters=cfg.adapt_iters)
        return [ADAPTIVE_SEQUENCES[seq](base, density, box, opts)]
    build, reads = UNIT_SEQUENCES[seq]
    seeds = ([_cell_seed(cfg.seed, zlib.crc32(seq.encode()), s, t) for t in range(cfg.trials)]
             if "seed" in reads else [0])
    return [(transform(build(s, d, seed), density), None) for seed in seeds]


def _mean_std(values):
    return {"mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0}


class _Workspace:
    """The buffers one worker reuses for every map of an experiment.

    ``gram`` (n x n, from `ExactGram.gram_buffer`) takes the lower triangle
    of each map's ZZ', which `ExactGram.errors` then overwrites with
    K - ZZ'; its strict upper triangle is never read or written here.  The
    first worker's ``gram`` is the array `ExactGram` built K's upper
    triangle in, whose strict lower triangle nothing wrote before the first
    map's ZZ', so a run holds ``workers`` n x n arrays in all.

    ``buffer`` holds, in turn, each chunk of a map's Z (n x 256 at most), the
    whole Z where the primal ridge reads it (2s <= n_train), and the dual
    ridge's Cholesky factor (n_train x n_train) where some s takes that
    route: max(n min(2 s_max, 256), n max{2s : 2s <= n_train}, n_train^2)
    doubles, whatever s_max: at n = 2000 and s = 4096, Z alone would be
    131 MB, and a run at d = 8 and s in {1024, 4096} peaks at 151 MB
    resident.  Reusing the buffers keeps the heap steady: fresh arrays per
    map would be returned to the system and faulted back in.
    """

    def __init__(self, gram, s_grid, n_train):
        self.gram = gram.gram_buffer()
        n, s_max = self.gram.shape[0], max(s_grid)
        size = n * 2 * min(s_max, _CHUNK_FREQS)
        if n_train is not None:
            size = max(size, n * max((2 * s for s in s_grid if 2 * s <= n_train), default=0))
            if 2 * s_max > n_train:
                size = max(size, n_train * n_train)
        self.buffer = np.empty(size)


def _feature_chunks(fmap, width):
    """``fmap`` as maps of at most ``width`` consecutive frequencies, each
    with its own weights, so that their ZZ' sum to that of ``fmap``."""
    if fmap.s <= width:
        return [fmap]
    points = fmap.freqs.points
    return [WeightedFeatureMap(freqs=FrequencySet(points=points[c:c + width]),
                               weights=fmap.weights[c:c + width])
            for c in range(0, fmap.s, width)]


def _gram_cell(cfg, density, box, X, gram, workspace, seq, s, with_discrepancy=False,
               ridge=None):
    """Gram errors, optional discrepancies and optional ridge errors for one
    (sequence, s) cell, against the shared `ExactGram` ``gram`` of X.

    The lower triangle of each map's ZZ' is summed in ``workspace.gram``
    from chunks of its real feature matrix Z, `_CHUNK_FREQS` frequencies
    (256 columns) each, every chunk built in ``workspace.buffer`` and added
    by one symmetric rank-k update.  Z is built whole only where the
    primal ridge reads it.  When ``ridge`` is ``(y, m)``, with the train
    rows first in X, a ridge model is trained on the first m rows and
    scored on the rest (`_ridge_error`) before ``gram.errors`` turns ZZ'
    into K - ZZ'.
    """
    pairs = []
    discrepancies = []
    errs = []
    G = workspace.gram
    whole = ridge is not None and 2 * s <= ridge[1]
    for freqs, weights in _frequency_maps_for_cell(cfg, density, box, seq, s, X.shape[1]):
        fmap = WeightedFeatureMap(freqs=freqs, weights=weights)
        for i, chunk in enumerate(_feature_chunks(fmap, s if whole else _CHUNK_FREQS)):
            Z = real_feature_matrix(chunk, X, out=workspace.buffer)
            syrk_lower(G, Z, accumulate=i > 0)
        if ridge is not None:
            errs.append(_ridge_error(Z if whole else None, G, *ridge, cfg.ridge_lambda,
                                     workspace.buffer))
        pairs.append(gram.errors(G))
        if with_discrepancy:
            if weights is None:
                discrepancies.append(
                    box_discrepancy_gaussian(freqs, density, box).d_squared)
            else:
                discrepancies.append(
                    weighted_discrepancy(freqs, weights, density, box))
    spectral, frobenius = zip(*pairs)
    cell = {"label": seq, "s": s, "trials": len(pairs),
            "relative_spectral": _mean_std(spectral),
            "relative_frobenius": _mean_std(frobenius)}
    if discrepancies:
        cell["discrepancy"] = {**_mean_std(discrepancies), "box_scale": cfg.box_scale}
    if errs:
        cell["regression_error"] = _mean_std(errs)
    return cell


def _prologue(cfg, ds):
    """The subsampled data, its density and box, its `ExactGram`, which
    every cell of an experiment shares, and the ridge split's train count.

    When the data has a target, its rows are reordered once, the ridge
    split's train rows first, so a map's train Gram matrix is the leading
    block of ZZ' and its test x train block lies in the lower triangle.
    Without a target the train count is None.
    """
    work, n_train = _subsample(ds, cfg.max_n, cfg.seed), None
    if work.y is not None:
        train, test = _split_indices(work.n, cfg.split, cfg.seed)
        order, n_train = np.concatenate([train, test]), len(train)
        work = Dataset(X=work.X[order], y=work.y[order])
    density = ProductDensity.for_kernel(cfg.kernel, cfg.sigma, work.d)
    box = estimate_box(work, cfg.box_scale)
    return work, density, box, ExactGram(density, work.X), n_train


def run_gram_experiment(cfg, ds):
    """Gram-error curves over the (sequence, s) grid; JSON-ready reports."""
    work, density, box, gram, _ = _prologue(cfg, ds)
    workspace = _Workspace(gram, cfg.s_grid, None)
    return [_gram_cell(cfg, density, box, work.X, gram, workspace, seq, s)
            for seq in cfg.sequences for s in cfg.s_grid]


def _ridge_solve(A, b, ridge_lambda, factor):
    """x solving (A + lambda I) x = b by Cholesky, for the symmetric A whose
    lower triangle A holds; A's strict upper triangle is not read.

    The factor is formed in ``factor``, an m x m C-contiguous float64 array:
    A is copied there, unless ``factor`` is A itself, which is then
    overwritten.  It runs on numpy's own OpenBLAS (`potrf_lower`,
    `potrs_lower`), in the thread pool that formed the matrix.  scipy
    bundles a second OpenBLAS; on few cores its threads contend with
    numpy's, which spin for a while after each call, and a scipy Cholesky
    right after numpy's product stalled for up to ~0.1 s on 2 vCPUs.
    """
    if factor is not A:
        np.copyto(factor, A)
    np.fill_diagonal(factor, np.diagonal(factor) + ridge_lambda)
    try:
        potrf_lower(factor)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "ridge system could not be factorized; try a larger --lambda"
        ) from exc
    return potrs_lower(factor, b)


def krr_train(Z, y, ridge_lambda):
    """Ridge solution of (Z'Z + lambda I) beta = Z'y by Cholesky
    (`_ridge_solve`), factored in place of the Z'Z it forms.

    A wide Z (fewer rows than columns) solves the smaller dual system
    (ZZ' + lambda I) alpha = y instead and returns beta = Z'alpha, the same
    beta by the push-through identity.
    """
    if ridge_lambda <= 0.0:
        raise ValueError("ridge lambda must be positive")
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if Z.shape[0] < Z.shape[1]:
        A = Z @ Z.T
        return Z.T @ _ridge_solve(A, y, ridge_lambda, factor=A)
    A = Z.T @ Z
    return _ridge_solve(A, Z.T @ y, ridge_lambda, factor=A)


def krr_predict(beta, Z):
    return np.asarray(Z, dtype=float) @ beta


def regression_error(y_hat, y):
    """Relative l2 error, or absolute when the reference is all-zero."""
    norm = float(np.linalg.norm(y))
    err = float(np.linalg.norm(y_hat - y))
    return err / norm if norm > 0.0 else err


def _ridge_error(Z, G, y, m, ridge_lambda, work):
    """Test error of the ridge model trained on the first m rows and scored
    on the others, for the map whose ZZ' has its lower triangle in G.

    A narrow train block (2s <= m) solves the primal system on the map's
    whole feature matrix Z (`krr_train`); Z's row blocks are views, so no
    rows are copied.  A wide one, for which Z is None, solves the dual
    system on G's leading m x m block, which is Z_train Z_train', and
    predicts with its test x train block: y_test = Z_test Z_train' alpha.
    The dual factor is formed in ``work``, a flat float64 buffer of at least
    m^2 entries that held Z's chunks, so G stays as it was.
    """
    if Z is not None:
        y_hat = krr_predict(krr_train(Z[:m], y[:m], ridge_lambda), Z[m:])
    else:
        factor = work[:m * m].reshape(m, m)
        y_hat = G[m:, :m] @ _ridge_solve(G[:m, :m], y[:m], ridge_lambda, factor)
    return regression_error(y_hat, y[m:])


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
    work, density, box, gram, n_train = _prologue(cfg, ds)
    ridge = None if n_train is None else (work.y, n_train)
    local = threading.local()  # one workspace per worker thread

    def run_cell(args):
        seq, s = args
        if not hasattr(local, "workspace"):
            local.workspace = _Workspace(gram, cfg.s_grid, n_train)
        return _gram_cell(cfg, density, box, work.X, gram, local.workspace, seq, s,
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
