"""Quick self-test of the benchmark: every workload at tiny size, end to end
and traced (without the probes), plus the tracer's own rules.

    python3 perfbench/selftest.py

Exits 0 when every check passes.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import checks
import probes
import run
import tracing
import workloads


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def test_self_time_is_duration_minus_union_of_children():
    def span(start, end, parent=None):
        sp = tracing.Span("x", parent, start)
        sp.end = end
        return sp

    # parent [0, 10]; children overlap ([1, 4] and [3, 6]) and one sticks out
    # past the parent's end ([8, 12]), so the union inside it is 5 + 2.
    spans = [span(0.0, 10.0), span(1.0, 4.0, 0), span(3.0, 6.0, 0), span(8.0, 12.0, 0),
             span(2.0, 3.0, 1)]
    own = tracing.self_times(spans)
    check(own == [3.0, 2.0, 3.0, 4.0, 1.0], f"self times {own}")


def test_missing_function_is_reported_not_raised(api):
    import qmcrff.featmap as featmap

    original = featmap.gram_exact
    targets = (("present", "qmcrff.featmap:gram_exact", None),
               ("gone", "qmcrff.featmap:no_such_function", None),
               ("gone_module", "qmcrff.no_such_module:fn", None),
               ("bad_counter", "qmcrff.featmap:gram_approx", lambda a, k, r: {"x": a[9]}))
    density = api.ProductDensity.for_kernel("gaussian", (1.0,), 2)
    X = [[0.0, 0.0], [1.0, 0.5]]
    with tracing.Tracer(targets) as tracer:
        featmap.gram_exact(density, X)
        fmap = featmap.WeightedFeatureMap(freqs=api.transform(api.halton(4, 2), density))
        featmap.gram_approx(fmap, X)
    check(featmap.gram_exact is original, "wrapper was not removed")
    check([sp.name for sp in tracer.spans] == ["present", "bad_counter"],
          f"spans {[sp.name for sp in tracer.spans]}")
    check(tracer.missing == ["qmcrff.featmap:no_such_function", "qmcrff.no_such_module:fn",
                             "bad_counter counts"], f"missing {tracer.missing}")


def test_missing_probe_is_reported_not_raised():
    import qmcrff
    from types import SimpleNamespace

    public = {k: getattr(qmcrff, k) for k in qmcrff.__all__ if k != "discrepancy_gradient"}
    selected = [p for p in probes.PROBES if p[0] in ("probe.halton.s4096_d8",
                                                     "probe.gradient.s1024_d4")]
    problems = []
    metrics, missing = probes.run_probes(SimpleNamespace(**public), 1, problems.append, selected)
    check(metrics["probe.halton.s4096_d8"] > 0 and metrics["probe.gradient.s1024_d4"] == 0.0,
          f"probe metrics {metrics}")
    check(len(missing) == 1 and missing[0].startswith("probe.gradient.s1024_d4"), f"{missing}")
    check(problems == [[]], f"probe problems {problems}")


def test_traced_self_times(tracer):
    own = tracing.self_times(tracer.spans)
    for i, sp in enumerate(tracer.spans):
        kids = sum(c.end - c.start for c in tracer.spans if c.parent == i)
        check(abs(own[i] - (sp.end - sp.start - kids)) < 1e-9, f"self time of span {i}")
        check(own[i] >= 0.0, f"negative self time of span {i}")


def run_tiny(name, seed=3):
    """One workload at tiny size: end-to-end loop, then a traced run."""
    workload = workloads.WORKLOADS[name].tiny()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        workdir = Path(tmp)
        api, ds, csv_path = run.setup(workload, seed, workdir)
        outcome = run.Outcome()
        lib_s, cli_s, report = run.measure(api, workload, ds, csv_path, 0.0, outcome)
        run.kkt_checks(api, workload, ds, outcome)
        check(outcome.failed == 0 and len(lib_s) == run.MIN_ROUNDS == len(cli_s),
              f"{name}: {outcome.failed} of {outcome.attempted} failed")
        check(all(v > 0 for v in checks.quality(report).values()), f"{name}: quality")

        cfg = api.ExperimentConfig(**workload.config_kwargs())
        _, wall = run.run_library(api, cfg, ds)
        out = workdir / "traced.json"
        with tracing.Tracer(tracing.TARGETS) as tracer:
            code = api.cli_main(workload.cli_argv(csv_path, out))
        check(code == 0, f"{name}: traced CLI returned {code}")
        traced_report = json.loads(out.read_text())
        check(not checks.compare_reports(report, traced_report, "traced"),
              f"{name}: tracing changed the report")
        metrics = tracing.layer_metrics(tracer, wall, len(traced_report["cells"]))
        check(set(metrics) == {m for m, _ in tracing.LAYER_METRICS}, f"{name}: layer metric names")
        check(not tracer.missing, f"{name}: missing {tracer.missing}")
        check(metrics["cli.cells"] == len(workload.sequences) * len(workload.s_grid),
              f"{name}: cell count")
        test_traced_self_times(tracer)
    return metrics


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS),
          "end_to_end metrics differ from run.E2E_METRICS")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(tracing.LAYER_METRICS + probes.PROBE_METRICS),
          "per_layer metrics differ from the traced run's")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workloads differ")


def main():
    t0 = time.perf_counter()
    run.OUT_DIR.mkdir(exist_ok=True)
    test_self_time_is_duration_minus_union_of_children()
    test_benchmark_json_lists_every_metric()
    api = workloads.import_qmcrff(run.ROOT)
    test_missing_function_is_reported_not_raised(api)
    test_missing_probe_is_reported_not_raised()
    metrics = {name: run_tiny(name) for name in workloads.WORKLOADS}
    check(metrics["gram_curve"]["adaptive.cg.runs"] == 0, "gram_curve ran an optimizer")
    check(metrics["greedy_seq"]["adaptive.cg.runs"] > 0, "greedy_seq ran no optimizer")
    check(metrics["adaptive_global"]["adaptive.weights.kkt"] <= checks.KKT_TOL, "kkt")
    print(f"self-test passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
