"""Command-line interface: an argparse layer over `qmcrff.experiment` and
the library, with subcommands for sequence generation, the inverse-CDF
transform, discrepancy reports, adaptive optimization, Gram-error curves,
ridge regression, the average-case check and the full pipeline.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields

import numpy as np

from .adaptive import OptimizerOptions, optimize_global, optimize_greedy, optimize_weights
from .densities import KERNELS, FrequencySet, ProductDensity, per_dimension, transform
from .discrepancy import Box, average_case_mc_check, box_discrepancy_gaussian, weighted_discrepancy
from .experiment import (
    ExperimentConfig,
    _split_indices,
    krr_predict,
    krr_train,
    load_csv,
    regression_error,
    run_gram_experiment,
    run_pipeline,
)
# Not used here: perfbench looks these entry points up in this module.
from .experiment import Dataset, estimate_box  # noqa: F401
from .featmap import WeightedFeatureMap, real_feature_matrix
from .ioutil import DataError, NumericalError, open_output, read_matrix_csv, write_matrix_csv
from .sequences import UNIT_SEQUENCES, UnitPointSet, _clamp_unit, halton, make_pointset


def _parse_floats(text):
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text):
    return tuple(int(v) for v in text.split(","))


def _open_outputs(args, stack):
    """Replace each output path in ``args`` by its stream, opened on ``stack``:
    `--out` always (stdout when omitted), `--out-points` and `--features-out`
    when given.  No path is opened before all are checked: an output may not
    name an input, which opening would empty, nor another output, whose
    contents the second opening would discard; and at most one output may
    be stdout (an omitted `--out` or "-"), where two would interleave."""
    named = {os.path.realpath(getattr(args, dest)): "an input file"
             for dest in ("infile", "freqs", "data") if getattr(args, dest, None) is not None}
    outputs = [dest for dest in ("out", "out_points", "features_out")
               if dest == "out" or getattr(args, dest, None) is not None]
    to_stdout = [dest for dest in outputs if getattr(args, dest) in (None, "-")]
    if len(to_stdout) > 1:
        flags = " and ".join("--" + dest.replace("_", "-") for dest in to_stdout)
        raise ValueError(f"{flags} both write to stdout; name a file for all but one")
    for dest in outputs:
        path = getattr(args, dest)
        if path not in (None, "-"):
            real = os.path.realpath(path)
            if real in named:
                raise ValueError(f"output {path} is also {named[real]}")
            named[real] = "another output"
    for dest in outputs:
        setattr(args, dest, stack.enter_context(open_output(getattr(args, dest))))


def _emit(payload, fh):
    fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_finite_csv(path, skip_header=False):
    """A point or frequency matrix from CSV; a nan or infinite entry is a data error."""
    M = read_matrix_csv(path, skip_header=skip_header)
    if not np.all(np.isfinite(M)):
        raise DataError(f"{path}: entries must be finite")
    return M


def _density_from_args(args, d):
    return ProductDensity.for_kernel(args.kernel, per_dimension(args.sigma, d, "--sigma"))


def _box_from_args(args, d):
    return Box(b=per_dimension(args.b, d, "--b")).scaled(args.box_scale)


def _cmd_generate(args):
    pts = make_pointset(args.seq, args.s, args.d, seed=args.seed, start_index=args.start,
                        generating_vector=args.z)
    if args.json:
        _emit(pts.to_json_dict(), args.out)
    else:
        write_matrix_csv(args.out, pts.points)


def _cmd_transform(args):
    M = _read_finite_csv(args.infile, skip_header=args.header)
    if M.min() < 0.0 or M.max() > 1.0:
        raise DataError(f"{args.infile}: coordinates must lie in [0, 1]")
    pts = UnitPointSet(points=_clamp_unit(M), generator="file", seed_or_start=0)
    write_matrix_csv(args.out, transform(pts, _density_from_args(args, pts.d)).points)


def _cmd_discrepancy(args):
    M = _read_finite_csv(args.freqs, skip_header=args.header)
    freqs = FrequencySet(points=M, provenance={"source": "file", "path": args.freqs})
    density = _density_from_args(args, freqs.d)
    box = _box_from_args(args, freqs.d)
    payload = box_discrepancy_gaussian(freqs, density, box).to_json_dict()
    payload["box_scale"] = args.box_scale
    _emit(payload, args.out)


def _cmd_optimize(args):
    if args.s < 1:
        raise ValueError(f"optimize requires s >= 1, got {args.s}")
    d = args.d
    density = _density_from_args(args, d)
    box = _box_from_args(args, d)
    if args.infile:
        init = FrequencySet(points=_read_finite_csv(args.infile),
                            provenance={"source": "file", "path": args.infile})
        if init.d != d or init.s < args.s:
            raise DataError(f"--in must provide at least {args.s} rows of dimension {d}")
    else:
        init = transform(halton(args.s, d), density)

    base = FrequencySet(points=init.points[:args.s], provenance=init.provenance)
    if args.mode == "weights":
        xi, kkt = optimize_weights(base, density, box)
        payload = {
            "weights": [float(v) for v in xi],
            "kkt_residual": kkt,
            "objective": weighted_discrepancy(base, xi, density, box),
            "uniform_objective": box_discrepancy_gaussian(base, density, box).d_squared,
        }
        points = base
    else:
        opts = OptimizerOptions(max_iters=args.max_iters)
        trace = (optimize_global(base, density, box, opts) if args.mode == "global"
                 else optimize_greedy(args.s, density, box, init, opts))
        payload, points = trace.to_json_dict(), trace.freqs
    if args.out_points:
        write_matrix_csv(args.out_points, points.points)
    _emit(payload, args.out)


def _experiment_from_args(args, has_target):
    """The dataset and `ExperimentConfig` of `gram-error` and `pipeline`: each flag
    given sets the field its dest names, and an omitted one keeps the default."""
    ds = load_csv(args.data, has_target=has_target, skip_header=args.header)
    given = vars(args)
    cfg = ExperimentConfig(**{f.name: given[f.name] for f in fields(ExperimentConfig)
                              if f.name in given})
    per_dimension(cfg.sigma, ds.d, "--sigma")
    return cfg, ds


def _cmd_gram_error(args):
    cfg, ds = _experiment_from_args(args, has_target=False)
    _emit({"cells": run_gram_experiment(cfg, ds)}, args.out)


def _cmd_krr(args):
    ds = load_csv(args.data, has_target=True, skip_header=args.header)
    density = _density_from_args(args, ds.d)
    train_idx, test_idx = _split_indices(ds.n, args.split, args.seed)
    pts = make_pointset(args.seq, args.s, ds.d, seed=args.seed)
    fmap = WeightedFeatureMap(freqs=transform(pts, density))
    Z = real_feature_matrix(fmap, ds.X)
    if args.features_out:
        write_matrix_csv(args.features_out, Z)
    beta = krr_train(Z[train_idx], ds.y[train_idx], args.ridge_lambda)
    payload = {
        "sequence": args.seq,
        "s": args.s,
        "lambda": args.ridge_lambda,
        "train_error": regression_error(krr_predict(beta, Z[train_idx]), ds.y[train_idx]),
        "test_error": regression_error(krr_predict(beta, Z[test_idx]), ds.y[test_idx]),
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
    }
    _emit(payload, args.out)


def _cmd_avgcase_check(args):
    density = _density_from_args(args, args.d)
    box = _box_from_args(args, args.d)
    pts = make_pointset(args.seq, args.s, args.d, seed=args.seed)
    freqs = transform(pts, density)
    report = average_case_mc_check(freqs, density, box, args.samples, args.seed)
    payload = report.to_json_dict()
    payload["within_3se"] = abs(report.empirical - report.predicted) <= 3 * report.stderr
    _emit(payload, args.out)


def _cmd_pipeline(args):
    cfg, ds = _experiment_from_args(args, has_target=args.target)
    _emit(run_pipeline(cfg, ds, workers=args.workers), args.out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmcrff",
        description="QMC and adaptive sequences for Fourier feature maps "
                    "of shift-invariant kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Settings that ExperimentConfig names take its defaults; the gram-error and
    # pipeline parsers suppress every default, so only given flags reach the config.
    def add_kernel_flags(p):
        p.add_argument("--kernel", choices=KERNELS,
                       default=p.argument_default or ExperimentConfig.kernel)
        p.add_argument("--sigma", type=_parse_floats,
                       default=p.argument_default or ExperimentConfig.sigma,
                       help="bandwidth, single value or comma list")

    def add_box_flags(p):
        p.add_argument("--b", type=_parse_floats, default=(1.0,),
                       help="box half-widths, single value or comma list")
        p.add_argument("--box-scale", type=float, default=ExperimentConfig.box_scale,
                       help="shrink factor applied to the box (e.g. 0.5)")

    def add_experiment_parser(name, help):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.add_argument("--data", required=True)
        p.add_argument("--header", action="store_true", default=False)
        add_kernel_flags(p)
        p.add_argument("--s", dest="s_grid", metavar="S", type=_parse_ints, required=True,
                       help="comma list of feature counts")
        p.add_argument("--seq", dest="sequences", metavar="SEQ",
                       type=lambda t: tuple(t.split(",")), required=True)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--max-n", type=int)
        p.add_argument("--box-scale", type=float)
        p.add_argument("--max-iters", dest="adapt_iters", metavar="MAX_ITERS", type=int,
                       help="iteration cap of both adaptive optimizers")
        p.add_argument("--out", default=None)
        return p

    p = sub.add_parser("generate", help="emit a unit-cube point set as CSV")
    p.add_argument("--seq", choices=tuple(UNIT_SEQUENCES), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--start", type=int, default=None, help="halton start index (default 1)")
    p.add_argument("--z", type=_parse_ints, default=None, help="lattice generating vector")
    p.add_argument("--json", action="store_true", help="emit the JSON envelope instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("transform", help="map unit-cube points to frequencies")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--header", action="store_true", help="skip the first line")
    add_kernel_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("discrepancy", help="closed-form squared box discrepancy of a "
                                           "frequency CSV, for either kernel")
    p.add_argument("--freqs", required=True)
    p.add_argument("--header", action="store_true")
    add_kernel_flags(p)
    add_box_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("optimize", help="adaptive sequence or weight optimization")
    p.add_argument("--mode", choices=("global", "greedy", "weights"), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_kernel_flags(p)
    add_box_flags(p)
    p.add_argument("--max-iters", type=int, default=OptimizerOptions.max_iters)
    p.add_argument("--in", dest="infile", default=None, help="start from this frequency CSV")
    p.add_argument("--out", default=None, help="trace/report JSON")
    p.add_argument("--out-points", default=None, help="final point set CSV")
    p.set_defaults(func=_cmd_optimize)

    p = add_experiment_parser("gram-error", help="Gram approximation error curves")
    p.set_defaults(func=_cmd_gram_error)

    p = sub.add_parser("krr", help="ridge regression on feature-mapped data")
    p.add_argument("--data", required=True, help="CSV whose last column is the target")
    p.add_argument("--header", action="store_true")
    add_kernel_flags(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seq", choices=tuple(UNIT_SEQUENCES), default="halton")
    p.add_argument("--lambda", dest="ridge_lambda", type=float,
                   default=ExperimentConfig.ridge_lambda)
    p.add_argument("--split", type=float, default=ExperimentConfig.split)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--features-out", default=None,
                   help="also export the cos/sin feature matrix as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_krr)

    p = sub.add_parser("avgcase-check", help="empirical vs predicted average-case error")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_kernel_flags(p)
    add_box_flags(p)
    p.add_argument("--seq", choices=tuple(UNIT_SEQUENCES), default="halton")
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_avgcase_check)

    p = add_experiment_parser("pipeline", help="full experiment report")
    p.add_argument("--target", action="store_true", default=False,
                   help="treat the last column as a regression target")
    p.add_argument("--lambda", dest="ridge_lambda", type=float)
    p.add_argument("--split", type=float)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with ExitStack() as stack:
            _open_outputs(args, stack)
            args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    code = main()
    # Shutdown's garbage collection then skips the ~50K objects the imports made.
    gc.freeze()
    sys.exit(code)
