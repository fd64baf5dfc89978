"""Benchmark workloads, the seeded synthetic-data generator, and the lookup
of the qmcrff entry points the benchmark drives.

Every workload uses the Gaussian kernel and runs ``run_pipeline`` with one
worker.  Inputs depend only on the workload and the ``--seed`` argument.
"""

import importlib
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

# Features are standard normal draws clipped to [-3, 3], with each column's
# smallest and largest value set to -3 and 3.  The estimated box (feature
# range times the box scale) is then the same for every seed, so the
# discrepancy figures do not move with the seed; the seed changes the points
# and the target noise only.  The range is that of about 400-2000 standard
# normal samples, which puts the erf evaluations on the branches real data
# of that kind would use.
DATA_HALF_RANGE = 3.0
TARGET_NOISE = 0.05
# The pipeline's own seed (MC frequencies, train/test split) is fixed, so
# the figures vary with the data alone.
PIPELINE_SEED = 0
BOX_SCALE = 0.5
RIDGE_LAMBDA = 1e-3


@dataclass(frozen=True)
class Workload:
    """One pipeline configuration together with the size of its data."""

    name: str
    why: str
    n: int
    d: int
    sigma: float
    sequences: tuple
    s_grid: tuple
    trials: int = 1
    adapt_iters: int = 50

    def config_kwargs(self):
        """Keyword arguments of the library's ``ExperimentConfig``."""
        return dict(kernel="gaussian", sigma=(self.sigma,), sequences=self.sequences,
                    s_grid=self.s_grid, trials=self.trials, box_scale=BOX_SCALE,
                    ridge_lambda=RIDGE_LAMBDA, split=0.5, seed=PIPELINE_SEED,
                    max_n=2000, adapt_iters=self.adapt_iters)

    def cli_argv(self, csv_path, out_path):
        """Arguments of ``qmcrff.cli pipeline`` for the same configuration."""
        return ["pipeline", "--data", str(csv_path), "--target",
                "--kernel", "gaussian", "--sigma", repr(self.sigma),
                "--s", ",".join(str(s) for s in self.s_grid),
                "--seq", ",".join(self.sequences),
                "--trials", str(self.trials), "--lambda", repr(RIDGE_LAMBDA),
                "--split", "0.5", "--seed", str(PIPELINE_SEED), "--max-n", "2000",
                "--box-scale", repr(BOX_SCALE),
                "--max-iters", str(self.adapt_iters), "--workers", "1",
                "--out", str(out_path)]

    def tiny(self):
        """The same sequences and layers at a size that runs in about a second."""
        return replace(self, n=48, s_grid=(4,), trials=min(self.trials, 2), adapt_iters=3)

    def warm_up(self):
        """The smallest run that goes through every layer the workload uses."""
        return replace(self, n=48, s_grid=(1,), trials=1, adapt_iters=1)


# Sizes are trimmed from the paper-scale runs so that one library run takes
# about 2-3.5 s on 2 cores and a measured run holds several library and CLI
# runs; each still spends most of its time in the layer named in ``why``.
# The data sizes keep the ridge test error steady from seed to seed.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="gram_curve",
        why="Gram error against s for QMC and MC sequences: feature maps and "
            "ridge training dominate, no adaptive optimization runs",
        n=1000, d=8, sigma=3.0,
        sequences=("halton", "halton-scrambled", "lattice", "mc"),
        s_grid=(64, 256, 512), trials=3),
    Workload(
        name="adaptive_global",
        why="few large discrepancy value and gradient evaluations in global "
            "optimization plus one large NNLS weight solve; feature maps are small",
        n=800, d=6, sigma=2.0,
        sequences=("halton", "adaptive-global", "weighted"),
        s_grid=(64, 192), adapt_iters=35),
    Workload(
        name="greedy_seq",
        why="thousands of tiny discrepancy evaluations in greedy growth, "
            "dominated by the damped-erf grid and per-call overhead",
        n=1500, d=2, sigma=1.0,
        sequences=("halton", "adaptive-greedy"),
        s_grid=(4,)),
)}


def make_arrays(n, d, seed):
    """Seeded features (n, d) spanning exactly [-3, 3] per column and a smooth
    noisy target cos(X.a) with the fixed direction a = (1, ..., 1) / sqrt(d).

    The features are a scrambled Halton design pushed through the normal
    quantile, so every seed's sample follows the normal distribution closely
    and figures that depend on the data vary little from seed to seed.
    """
    import numpy as np
    from scipy.special import ndtri
    from scipy.stats import qmc

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, n, d))))
    U = qmc.Halton(d, scramble=True, seed=rng).random(n)
    X = np.clip(ndtri(U), -DATA_HALF_RANGE, DATA_HALF_RANGE)
    cols = np.arange(d)
    X[X.argmin(axis=0), cols] = -DATA_HALF_RANGE
    X[X.argmax(axis=0), cols] = DATA_HALF_RANGE
    y = np.cos(X @ np.full(d, 1.0 / math.sqrt(d))) + TARGET_NOISE * rng.standard_normal(n)
    return X, y


def make_dataset(api, workload, seed, csv_path):
    """The workload's in-memory ``Dataset``; also writes the CSV (features,
    then target, full double precision) that the CLI reads."""
    import numpy as np

    X, y = make_arrays(workload.n, workload.d, seed)
    M = np.ascontiguousarray(np.column_stack([X, y]))
    np.savetxt(csv_path, M, fmt="%.17g", delimiter=",")
    # Views of one (n, d + 1) matrix, the layout the CLI's CSV reader makes.
    # The pipeline's last bits depend on the memory layout of X, and the
    # library and CLI reports are compared bit for bit.
    return api.Dataset(X=M[:, :-1], y=M[:, -1])


# The entry points the benchmark drives, all bound in qmcrff.cli.
_ENTRY_POINTS = ("Dataset", "ExperimentConfig", "run_pipeline", "estimate_box",
                 "ProductDensity", "transform", "halton", "optimize_weights", "main")


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def import_qmcrff(root):
    """Import qmcrff from ``root/src`` and return its entry points."""
    src = Path(root) / "src"
    if not (src / "qmcrff" / "__init__.py").is_file():
        raise SetupError(f"no qmcrff package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("qmcrff.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import qmcrff.cli: {exc}") from exc
    qmcrff = sys.modules["qmcrff"]
    if Path(qmcrff.__file__).resolve().parent != (src / "qmcrff").resolve():
        raise SetupError(f"qmcrff was imported from {qmcrff.__file__}, not from {src}")
    api = {name: getattr(cli, name, None) for name in _ENTRY_POINTS}
    api["cli_main"] = api.pop("main")
    absent = sorted(k for k, v in api.items() if v is None)
    if absent:
        raise SetupError(f"qmcrff lacks {', '.join(absent)}")
    return SimpleNamespace(src=src, **api)
