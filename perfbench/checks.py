"""Correctness checks applied to every pipeline report the benchmark produces,
and the quality figures taken from a report.

The checks are bounds, not exact values: greedy output depends on last-bit
rounding, so only orderings that the method guarantees are required.
"""

import math

KKT_TOL = 1e-8
_VOLATILE_KEYS = ("generated_at",)


def _nonfinite_paths(obj, path="report"):
    if isinstance(obj, bool):
        return []
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_paths(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in _nonfinite_paths(v, f"{path}[{i}]")]
    return []


def _discrepancies(report):
    return {(c["label"], c["s"]): c["discrepancy"]["mean"]
            for c in report["cells"] if "discrepancy" in c}


def check_report(report, workload):
    """Problems found in one pipeline report; an empty list means it passed."""
    problems = [f"non-finite number at {p}" for p in _nonfinite_paths(report)]
    expected = {(q, s) for q in workload.sequences for s in workload.s_grid}
    got = {(c["label"], c["s"]) for c in report["cells"]}
    if got != expected:
        problems.append(f"report cells {sorted(got)} differ from the grid {sorted(expected)}")
    d2 = _discrepancies(report)
    for (label, s), value in sorted(d2.items()):
        halton = d2.get(("halton", s))
        if halton is None:
            continue
        if label == "adaptive-global" and not value < halton:
            problems.append(f"adaptive-global D^2 {value:.6e} is not below halton {halton:.6e} at s={s}")
        if label in ("adaptive-greedy", "weighted") and not value <= halton:
            problems.append(f"{label} D^2 {value:.6e} exceeds halton {halton:.6e} at s={s}")
    for name, value in quality(report).items():
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"quality figure {name} is {value}, not a positive number")
    return problems


def _strip(report):
    return {k: v for k, v in report.items() if k not in _VOLATILE_KEYS}


def compare_reports(reference, other, what):
    """Problems if two reports differ anywhere except the timestamp."""
    a, b = _strip(reference), _strip(other)
    if a == b:
        return []
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{what} differs from the library report in {', '.join(keys)}"]


def check_kkt(kkt, s):
    return [] if kkt <= KKT_TOL else [f"weight KKT residual {kkt:.3e} > {KKT_TOL:.0e} at s={s}"]


def _geomean(values):
    if not values or min(values) <= 0.0:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(report):
    """Geometric means over the report cells of each quality figure."""
    cells = report["cells"]
    return {
        "spec_err": _geomean([c["relative_spectral"]["mean"] for c in cells]),
        "frob_err": _geomean([c["relative_frobenius"]["mean"] for c in cells]),
        "disc_sq": _geomean([c["discrepancy"]["mean"] for c in cells if "discrepancy" in c]),
        "krr_err": _geomean([c["regression_error"]["mean"] for c in cells
                             if "regression_error" in c]),
    }
