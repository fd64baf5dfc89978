"""Span tracer that wraps qmcrff's public functions from outside the package,
and the per-layer metrics derived from its spans.

A span records a name, start, end and parent span; spans stay in memory
until the run ends, when they are written with the run id ``RUN_ID``.  A wrapped function is replaced in every
``qmcrff.*`` module namespace that binds it, so calls the package makes
through its own imports are seen.  A function that no longer exists is
reported as missing and the run continues.  The tracer assumes one thread
(the benchmark runs the pipeline with one worker).
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


# A benchmark process makes one traced run.
RUN_ID = 0


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = None


class Tracer:
    """Records spans around wrapped functions; use as a context manager to
    install the wrappers and restore the originals afterwards."""

    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self._note_missing(f"{name} counts")
            return result

        return traced

    def _note_missing(self, what):
        if what not in self.missing:
            self.missing.append(what)

    def __enter__(self):
        for name, qualname, counter in self.targets:
            module_name, attr = qualname.split(":")
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self._note_missing(qualname)
                continue
            wrapper = self.wrap(fn, name, counter)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "qmcrff" and not mod_name.startswith("qmcrff."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, fn))
        return self

    def __exit__(self, *exc):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()
        return False

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "run": RUN_ID, "name": sp.name,
                                     "parent": sp.parent, "start": sp.start - t0,
                                     "end": sp.end - t0, "counts": sp.counts}) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for start, end in sorted((max(spans[c].start, sp.start), min(spans[c].end, sp.end))
                                 for c in children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((sp.end - sp.start) - covered)
    return out


# ---------------------------------------------------------------------------
# what is traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gram_flops(args, kwargs, result):
    fmap, X = _arg(args, kwargs, 0, "fmap"), _arg(args, kwargs, 1, "X")
    n, d = X.shape
    s = fmap.freqs.points.shape[0]
    # phases X W^T, then C C^T + S S^T
    return {"flops": 2 * n * d * s + 4 * n * n * s}


def _pairs_of_array(args, kwargs, result):
    s, d = _arg(args, kwargs, 0, "W").shape
    return {"pair_evals": s * s * d}


def _pairs_of_freqs(args, kwargs, result):
    s, d = _arg(args, kwargs, 0, "freqs").points.shape
    return {"pair_evals": s * s * d}


def _cg_outcome(args, kwargs, result):
    return {"iters": result.n_iters, "converged": int(bool(result.converged)),
            "line_search_failed": int(bool(result.line_search_failed))}


def _kkt(args, kwargs, result):
    return {"kkt": float(result[1])}


def _erf_elements(args, kwargs, result):
    return {"elements": int(result.size)}


def _points(args, kwargs, result):
    return {"points": int(result.points.shape[0])}


def _rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


# (span name, "module:function", counter).  A function that has moved is
# reported as missing.
TARGETS = (
    ("cli.run_pipeline", "qmcrff.cli:run_pipeline", None),
    ("cli.krr_train", "qmcrff.cli:krr_train", None),
    ("cli.emit", "qmcrff.cli:_emit", None),
    ("ioutil.read_matrix_csv", "qmcrff.ioutil:read_matrix_csv", _rows),
    ("featmap.gram_exact", "qmcrff.featmap:gram_exact", None),
    ("featmap.gram_approx", "qmcrff.featmap:gram_approx", _gram_flops),
    ("featmap.relative_errors", "qmcrff.featmap:relative_errors", None),
    ("featmap.spectral_norm", "qmcrff.featmap:spectral_norm", None),
    ("featmap.real_feature_matrix", "qmcrff.featmap:real_feature_matrix", None),
    ("discrepancy.value", "qmcrff.discrepancy:gaussian_discrepancy_terms", _pairs_of_array),
    ("discrepancy.assemble_H_v", "qmcrff.discrepancy:assemble_H_v", None),
    ("adaptive.gradient", "qmcrff.adaptive:discrepancy_gradient", _pairs_of_freqs),
    ("adaptive.cg", "qmcrff.adaptive:nonlinear_cg", _cg_outcome),
    ("adaptive.global", "qmcrff.adaptive:optimize_global", None),
    ("adaptive.greedy", "qmcrff.adaptive:optimize_greedy", None),
    ("adaptive.weights", "qmcrff.adaptive:optimize_weights", _kkt),
    ("specfun.erf_grid", "qmcrff.specfun:re_erf_damped_grid", _erf_elements),
    ("sequences", "qmcrff.sequences:halton", _points),
    ("sequences", "qmcrff.sequences:lattice", _points),
    ("sequences", "qmcrff.sequences:mc_uniform", _points),
    ("densities.transform", "qmcrff.densities:transform", None),
)


# Per span name, the statistics reported as "<span name>.<stat>".
SPAN_STATS = (
    ("featmap.gram_approx", ("calls", "self_s", "flops")),
    ("featmap.relative_errors", ("calls", "self_s")),
    ("featmap.spectral_norm", ("calls", "self_s")),
    ("featmap.real_feature_matrix", ("self_s",)),
    ("featmap.gram_exact", ("self_s",)),
    ("cli.krr_train", ("calls", "self_s")),
    ("cli.run_pipeline", ("self_s",)),
    ("cli.emit", ("self_s",)),
    ("discrepancy.value", ("calls", "self_s", "pair_evals")),
    ("discrepancy.assemble_H_v", ("self_s",)),
    ("adaptive.gradient", ("calls", "self_s", "pair_evals")),
    ("adaptive.global", ("self_s",)),
    ("adaptive.greedy", ("self_s",)),
    ("adaptive.weights", ("self_s",)),
    ("specfun.erf_grid", ("calls", "self_s", "elements")),
    ("sequences", ("calls", "self_s", "points")),
    ("densities.transform", ("calls", "self_s")),
    ("ioutil.read_matrix_csv", ("self_s", "rows")),
)

_STAT_UNITS = {"calls": "count", "self_s": "s", "flops": "flop-computed",
               "pair_evals": "pairs-computed", "elements": "elems-computed",
               "points": "points-computed", "rows": "rows-computed"}

# Shares of the traced run_pipeline time spent in each layer's own code.
SHARES = (("featmap.share", ("featmap.",)),
          ("cli.krr_train.share", ("cli.krr_train",)),
          ("discrepancy.share", ("discrepancy.",)),
          ("adaptive.share", ("adaptive.",)),
          ("specfun.share", ("specfun.",)))

LAYER_METRICS = tuple(
    [(f"{span}.{stat}", _STAT_UNITS[stat]) for span, stats in SPAN_STATS for stat in stats]
    + [("cli.cells", "count"),
       ("adaptive.weights.kkt", "residual"),
       ("adaptive.cg.runs", "count"),
       ("adaptive.cg.iters", "count"),
       ("adaptive.cg.objective_evals", "count"),
       ("adaptive.cg.gradient_evals", "count"),
       ("adaptive.cg.evals_per_iter", "evals/iter"),
       ("adaptive.cg.line_search_failures", "count"),
       ("adaptive.cg.converged_frac", "ratio")]
    + [(name, "ratio") for name, _ in SHARES]
    + [("trace.overhead_frac", "ratio"), ("trace.missing", "count")]
)

_OPTIMIZERS = ("adaptive.global", "adaptive.greedy")


def layer_metrics(tracer, untraced_wall, cells):
    """Per-layer metrics of one traced pipeline run.

    ``untraced_wall`` is the library run_pipeline time measured without
    tracing; ``cells`` is the number of cells in the traced report.
    """
    spans = tracer.spans
    own = self_times(spans)
    totals = defaultdict(float)
    for sp, own_s in zip(spans, own):
        totals[(sp.name, "calls")] += 1
        totals[(sp.name, "self_s")] += own_s
        for key, value in (sp.counts or {}).items():
            totals[(sp.name, key)] += value
    metrics = {f"{span}.{stat}": totals[(span, stat)]
               for span, stats in SPAN_STATS for stat in stats}

    def ancestors(i):
        parent = spans[i].parent
        while parent is not None:
            yield spans[parent].name, parent
            parent = spans[parent].parent

    roots = [i for i, sp in enumerate(spans) if sp.name == "cli.run_pipeline"]
    root_ids = set(roots)
    pipeline_s = sum(spans[i].end - spans[i].start for i in roots)
    shares = defaultdict(float)
    objective_evals = gradient_evals = 0
    for i, sp in enumerate(spans):
        names_up = list(ancestors(i))
        if sp.name in ("discrepancy.value", "adaptive.gradient") and any(
                n in _OPTIMIZERS for n, _ in names_up):
            if sp.name == "discrepancy.value":
                objective_evals += 1
            else:
                gradient_evals += 1
        if i in root_ids or any(j in root_ids for _, j in names_up):
            for share, prefixes in SHARES:
                if sp.name.startswith(prefixes):
                    shares[share] += own[i]

    cg = [sp.counts for sp in spans if sp.name == "adaptive.cg" and sp.counts]
    iters = sum(c["iters"] for c in cg)
    kkts = [sp.counts["kkt"] for sp in spans if sp.name == "adaptive.weights" and sp.counts]
    metrics.update({
        "cli.cells": cells,
        "adaptive.weights.kkt": max(kkts, default=0.0),
        "adaptive.cg.runs": len(cg),
        "adaptive.cg.iters": iters,
        "adaptive.cg.objective_evals": objective_evals,
        "adaptive.cg.gradient_evals": gradient_evals,
        "adaptive.cg.evals_per_iter": objective_evals / iters if iters else 0.0,
        "adaptive.cg.line_search_failures": sum(c["line_search_failed"] for c in cg),
        "adaptive.cg.converged_frac": (sum(c["converged"] for c in cg) / len(cg)) if cg else 0.0,
        "trace.overhead_frac": (pipeline_s / untraced_wall - 1.0) if roots else 0.0,
        "trace.missing": len(tracer.missing),  # the caller adds missing probes
    })
    for share, _ in SHARES:
        metrics[share] = shares[share] / pipeline_s if pipeline_s > 0 else 0.0
    return metrics
