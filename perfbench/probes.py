"""Single-layer timings at fixed sizes, reported as per-layer ``probe.*``
metrics by the traced run.  Each probe looks up its public function and
builds its inputs untimed, then times one call; calls under 0.5 s are
repeated and the median is kept.  A function that no longer exists is
reported as missing.
"""

import statistics
import time

from workloads import make_arrays


def _gaussian_setup(q, s, d, sigma=1.0, b=1.0):
    density = q.ProductDensity.gaussian(sigma, d=d)
    return density, q.Box(b=[b] * d), q.transform(q.halton(s, d), density)


def _halton(s, d):
    def build(q, seed):
        halton = q.halton
        return lambda: halton(s, d)
    return build


def _value(s, d):
    def build(q, seed):
        value, (density, box, freqs) = q.box_discrepancy_gaussian, _gaussian_setup(q, s, d)
        return lambda: value(freqs, density, box)
    return build


def _gradient(s, d):
    def build(q, seed):
        gradient, (density, box, freqs) = q.discrepancy_gradient, _gaussian_setup(q, s, d)
        return lambda: gradient(freqs, density, box)
    return build


def _global(s, d, iters):
    def build(q, seed):
        optimize, (density, box, freqs) = q.optimize_global, _gaussian_setup(q, s, d)
        opts = q.OptimizerOptions(max_iters=iters)
        return lambda: optimize(freqs, density, box, opts)
    return build


def _greedy(s, d):
    def build(q, seed):
        optimize, (density, box, freqs) = q.optimize_greedy, _gaussian_setup(q, s, d)
        opts = q.OptimizerOptions(max_iters=200, grad_tol=1e-10)
        return lambda: optimize(s, density, box, freqs, opts)
    return build


def _weights(s, d):
    def build(q, seed):
        optimize, (density, box, freqs) = q.optimize_weights, _gaussian_setup(q, s, d)
        return lambda: optimize(freqs, density, box)
    return build


_GRAM_N, _GRAM_D, _GRAM_S, _GRAM_SIGMA = 2000, 8, 1024, 3.0


def _gram(which):
    def build(q, seed):
        fn = getattr(q, which)
        X, _ = make_arrays(_GRAM_N, _GRAM_D, seed)
        density, _, freqs = _gaussian_setup(q, _GRAM_S, _GRAM_D, sigma=_GRAM_SIGMA)
        fmap = q.WeightedFeatureMap(freqs=freqs)
        if which == "gram_exact":
            return lambda: fn(density, X)
        if which == "gram_approx":
            return lambda: fn(fmap, X)
        K, K_approx = q.gram_exact(density, X), q.gram_approx(fmap, X)
        return lambda: fn(K, K_approx)
    return build


# The sizes of the single-layer timings the project's roadmap quotes.
PROBES = (
    ("probe.halton.s4096_d8", _halton(4096, 8)),
    ("probe.halton.s65536_d2", _halton(65536, 2)),
    ("probe.value.s1024_d4", _value(1024, 4)),
    ("probe.value.s1024_d16", _value(1024, 16)),
    ("probe.gradient.s1024_d4", _gradient(1024, 4)),
    ("probe.gradient.s1024_d16", _gradient(1024, 16)),
    ("probe.global.s64_d2_it50", _global(64, 2, 50)),
    ("probe.greedy.s128_d2", _greedy(128, 2)),
    ("probe.weights.s512_d3", _weights(512, 3)),
    ("probe.gram_exact.n2000", _gram("gram_exact")),
    ("probe.gram_approx.n2000", _gram("gram_approx")),
    ("probe.relative_errors.n2000", _gram("relative_errors")),
)

PROBE_METRICS = tuple((name, "s") for name, _ in PROBES)

_REPEAT_BELOW_S = 0.5
_MAX_REPEATS = 3


def run_probes(qmcrff, seed, record, selected=PROBES):
    """Time the probes; ``record`` receives each probe's list of problems.
    Returns (metrics, missing)."""
    metrics, missing = {}, []
    for name, build in selected:
        metrics[name] = 0.0
        try:
            call = build(qmcrff, seed)
        except AttributeError as exc:
            missing.append(f"{name}: {exc}")
            continue
        times = []
        try:
            while len(times) < _MAX_REPEATS and (not times or max(times) < _REPEAT_BELOW_S):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
        except Exception as exc:  # a probe failure is counted, the run goes on
            record([f"probe {name} raised {exc!r}"])
            continue
        record([])
        metrics[name] = statistics.median(times)
    return metrics, missing
