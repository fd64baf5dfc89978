"""qmcrff benchmark: one pipeline workload in a closed loop.

    python3 perfbench/run.py --workload gram_curve --seed 1 --seconds 35 --trace 0

A single client runs one pipeline at a time with ``workers=1``; BLAS threads
are left at their default and recorded.  With ``--trace 0`` the run alternates
a library ``run_pipeline`` call and the same configuration run through
``python -m qmcrff.cli pipeline`` until ``--seconds`` are used, checks every
report, and prints the end-to-end metrics.  With ``--trace 1`` it times the
pipeline untraced, runs it once traced through ``qmcrff.cli.main``, then the
single-layer probes, and prints the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it list the metrics
with their units and the environment.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3   # this process plus fresh subprocesses; the median is reported
MIN_ROUNDS = 3      # library + CLI pairs measured even when --seconds is short
CHILD_TIMEOUT_S = 150

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cli_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("spec_err", "ratio"),
    ("frob_err", "ratio"),
    ("disc_sq", "D2"),
    ("krr_err", "ratio"),
    ("ok_frac", "ratio"),
)


def log(message):
    print(message, file=sys.stderr, flush=True)


class Outcome:
    """Operations attempted and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"check failed: {p}")


def setup(workload, seed, workdir):
    """Generate the data, write its CSV, import qmcrff and warm up."""
    api = workloads.import_qmcrff(ROOT)
    csv_path = workdir / "data.csv"
    ds = workloads.make_dataset(api, workload, seed, csv_path)
    warm = workload.warm_up()
    X, y = workloads.make_arrays(warm.n, warm.d, seed)
    api.run_pipeline(api.ExperimentConfig(**warm.config_kwargs()), api.Dataset(X=X, y=y),
                     workers=1)
    return api, ds, csv_path


def setup_in_subprocess(args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess exited with {proc.returncode}: {proc.stderr[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_library(api, cfg, ds):
    t0 = time.perf_counter()
    report = api.run_pipeline(cfg, ds, workers=1)
    elapsed = time.perf_counter() - t0
    return json.loads(json.dumps(report)), elapsed


def run_cli(api, argv):
    """Run the CLI in a fresh interpreter; returns (report or None, seconds, problems)."""
    out_path = Path(argv[argv.index("--out") + 1])
    if out_path.exists():
        out_path.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(api.src), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qmcrff.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, elapsed, [f"CLI exited with {proc.returncode}: {proc.stderr[-500:]}"]
    with open(out_path) as fh:
        return json.load(fh), elapsed, []


def kkt_checks(api, workload, ds, outcome):
    """KKT residual of the weight solve the pipeline makes, at every s."""
    if "weighted" not in workload.sequences:
        return
    density = api.ProductDensity.for_kernel("gaussian", (workload.sigma,), workload.d)
    box = api.estimate_box(ds, workloads.BOX_SCALE)
    for s in workload.s_grid:
        try:
            _, kkt = api.optimize_weights(api.transform(api.halton(s, workload.d), density),
                                          density, box)
        except Exception:  # counted as a failed check, the run goes on
            log(traceback.format_exc())
            outcome.record(["weight optimization raised"])
            continue
        outcome.record(checks.check_kkt(kkt, s))


def checked_library_run(api, cfg, ds, workload, reference, outcome):
    """One library run and its checks; returns (report, seconds) or (None, None)."""
    try:
        report, elapsed = run_library(api, cfg, ds)
    except Exception:  # counted as a failed run, the caller goes on
        log(traceback.format_exc())
        outcome.record(["library run raised"])
        return None, None
    problems = checks.check_report(report, workload)
    if reference is not None:
        problems += checks.compare_reports(reference, report, "a repeated library run")
    outcome.record(problems)
    return report, elapsed


def measure(api, workload, ds, csv_path, seconds, outcome):
    """Alternate library and CLI runs for ``seconds``; returns their times
    and the first library report."""
    cfg = api.ExperimentConfig(**workload.config_kwargs())
    argv = workload.cli_argv(csv_path, csv_path.with_name("cli.json"))
    lib_s, cli_s = [], []
    deadline = time.perf_counter() + seconds
    # The first full-size run in a process pays one-off costs (allocator
    # growth, lazy imports) that later runs do not; it is checked, not timed.
    first, _ = checked_library_run(api, cfg, ds, workload, None, outcome)
    rounds = 0
    while True:
        round_start = time.perf_counter()
        report, elapsed = checked_library_run(api, cfg, ds, workload, first, outcome)
        if report is not None:
            lib_s.append(elapsed)
            first = first or report
        cli_report, elapsed, problems = run_cli(api, argv)
        if cli_report is not None:
            cli_s.append(elapsed)
            problems = checks.check_report(cli_report, workload)
            if report is not None:
                problems += checks.compare_reports(report, cli_report, "the CLI report")
        outcome.record(problems)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > deadline:
            return lib_s, cli_s, first


def end_to_end(args, api, workload, ds, csv_path, setup_s):
    outcome = Outcome()
    lib_s, cli_s, report = measure(api, workload, ds, csv_path, args.seconds, outcome)
    kkt_checks(api, workload, ds, outcome)
    if not lib_s or not cli_s:
        raise RuntimeError("no library or CLI run completed")
    for _ in range(SETUP_SAMPLES - 1):
        setup_s.append(setup_in_subprocess(args))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = dict(checks.quality(report),
                  setup_s=statistics.median(setup_s),
                  wall_s=statistics.median(lib_s),
                  cli_wall_s=statistics.median(cli_s),
                  peak_rss_mb=peak_kb / 1024.0,
                  ok_frac=1.0 - outcome.failed / outcome.attempted)
    samples = {"setup_s": setup_s, "wall_s": lib_s, "cli_wall_s": cli_s}
    return outcome, {name: (values[name], unit) for name, unit in E2E_METRICS}, samples


def traced(args, api, workload, ds, csv_path, workdir):
    outcome = Outcome()
    cfg = api.ExperimentConfig(**workload.config_kwargs())
    report, _ = checked_library_run(api, cfg, ds, workload, None, outcome)  # warm-up
    walls = [checked_library_run(api, cfg, ds, workload, report, outcome)[1]
             for _ in range(MIN_ROUNDS)]
    if report is None or None in walls:
        raise RuntimeError("an untraced library run failed")
    out_path = workdir / "traced.json"
    with tracing.Tracer(tracing.TARGETS) as tracer:
        code = api.cli_main(workload.cli_argv(csv_path, out_path))
    traced_report = None
    if code != 0:
        outcome.record([f"traced CLI run returned {code}"])
    else:
        with open(out_path) as fh:
            traced_report = json.load(fh)
        outcome.record(checks.check_report(traced_report, workload)
                       + checks.compare_reports(report, traced_report, "the traced CLI report"))
    kkt_checks(api, workload, ds, outcome)
    cells = len(traced_report["cells"]) if traced_report else 0
    values = tracing.layer_metrics(tracer, statistics.median(walls), cells)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    missing = list(tracer.missing)

    probe_values, probe_missing = probes.run_probes(sys.modules["qmcrff"], args.seed,
                                                    outcome.record)
    values.update(probe_values)
    missing += probe_missing
    values["trace.missing"] = len(missing)
    metrics = {name: (values[name], unit)
               for name, unit in tracing.LAYER_METRICS + probes.PROBE_METRICS}
    return outcome, metrics, {"missing": missing, "spans_file": str(spans_path.relative_to(ROOT))}


def _openblas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    """Where the figures were measured; kept out of every metric."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        try:
            api, ds, csv_path = setup(workload, args.seed, workdir)
        except workloads.SetupError as exc:
            log(f"set-up failed: {exc}")
            return 2
        setup_s = [time.perf_counter() - _STARTED]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s[0]}))
            return 0
        if args.trace:
            outcome, metrics, extra = traced(args, api, workload, ds, csv_path, workdir)
        else:
            outcome, metrics, samples = end_to_end(args, api, workload, ds, csv_path, setup_s)
            extra = {"samples": samples}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps(dict(extra, environment=environment(args))))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
