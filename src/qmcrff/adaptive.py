"""Adaptive frequency sequences by direct discrepancy minimization:
analytic gradient, global point optimization on scipy's L-BFGS-B, greedy
point optimization on Polak-Ribiere-plus conjugate gradient with Armijo
backtracking, and nonnegative weight optimization.

Both point optimizers stop after ``max_iters`` iterations or once the
gradient's 2-norm is at most ``grad_tol``."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._blas import _scipy_blas_single_thread
from .densities import FrequencySet
from .discrepancy import BoxObjective, _exclusive_products, _sinc_factor
from .ioutil import NumericalError

_MIN_STEP = 1e-16
# Armijo sufficient-decrease constant and backtracking shrink factor.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_KKT_TOL = 1e-8  # `optimize_weights` warns above this KKT residual


@dataclass
class OptimizerOptions:
    """Iteration cap and gradient 2-norm tolerance of the point optimizers:
    L-BFGS-B in `optimize_global`, conjugate gradient in `optimize_greedy`."""

    max_iters: int = 50
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class OptTrace:
    """Per-iteration record of a descent run (or of greedy appends).

    For line-search-driven runs ``objective_values`` is non-increasing by
    construction.  ``step_sizes`` holds the line-search step alpha for
    conjugate gradient runs and ||x_new - x|| for L-BFGS-B runs.  ``x`` is
    the final flattened iterate; wrappers attach the corresponding
    FrequencySet.  A greedy run has converged when every inner solve has,
    and its line search failed when any inner solve's did.
    """

    x: np.ndarray
    objective_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    line_search_failed: bool = False
    freqs: FrequencySet = None

    def to_json_dict(self):
        out = {
            "objective_values": [float(v) for v in self.objective_values],
            "grad_norms": [float(v) for v in self.grad_norms],
            "step_sizes": [float(v) for v in self.step_sizes],
            "n_iters": self.n_iters,
            "converged": self.converged,
            "line_search_failed": self.line_search_failed,
        }
        if self.freqs is not None:
            out["freqs"] = self.freqs.to_json_dict()
        return out


def discrepancy_gradient(freqs, density, box):
    """Gradient of the squared box discrepancy with respect to every frequency.

    The gradient half of `BoxObjective.value_and_grad`, which documents the
    formula; it serves both densities.
    """
    return BoxObjective(density, box).value_and_grad(freqs.points)[1]


def nonlinear_cg(value_and_grad, x0, opts):
    """Polak-Ribiere-plus conjugate gradient with Armijo backtracking.

    ``value_and_grad(x)`` returns the objective and its gradient at x, a
    float and a new 1-D array, as scipy's ``minimize`` takes with
    ``jac=True``; it is called once per trial point, and the gradient of
    the point a step accepts is the one its line search computed.
    Restarts to steepest descent every n iterations, for n variables, and
    whenever the conjugate direction fails to be a descent direction.
    Accepted steps never increase the objective.  A line search that
    collapses below 1e-16 is reported in the trace, not raised.
    """
    x = np.asarray(x0, dtype=float).copy()
    restart = max(1, x.size)
    f, g = value_and_grad(x)
    if not math.isfinite(f):
        raise ValueError(f"objective is not finite at the starting point: {f}")
    gnorm = float(np.linalg.norm(g))
    trace = OptTrace(x=x, objective_values=[f], grad_norms=[gnorm])
    if gnorm <= opts.grad_tol:
        trace.converged = True
        return trace

    direction = -g
    alpha_prev = None
    for it in range(1, opts.max_iters + 1):
        gd = float(g @ direction)
        if gd >= 0.0:
            direction = -g
            gd = -float(g @ g)
        alpha = 1.0 / (1.0 + gnorm) if alpha_prev is None \
            else alpha_prev / _BACKTRACK
        accepted = False
        while alpha >= _MIN_STEP:
            x_new = x + alpha * direction
            f_new, g_new = value_and_grad(x_new)
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_C * alpha * gd:
                accepted = True
                break
            # Safeguarded quadratic-interpolation backtrack.
            denom = 2.0 * (f_new - f - gd * alpha)
            if math.isfinite(denom) and denom > 0.0:
                cand = -gd * alpha * alpha / denom
                alpha = min(max(cand, 0.1 * alpha), _BACKTRACK * alpha)
            else:
                alpha *= _BACKTRACK
        if not accepted:
            trace.line_search_failed = True
            break
        # One interpolation refinement toward the 1-D minimizer; exact for
        # quadratic objectives, which keeps the conjugate directions honest.
        denom = 2.0 * (f_new - f - gd * alpha)
        if denom > 0.0:
            cand = -gd * alpha * alpha / denom
            if math.isfinite(cand) and _MIN_STEP <= cand <= 10.0 * alpha:
                x_cand = x + cand * direction
                f_cand, g_cand = value_and_grad(x_cand)
                if f_cand < f_new and f_cand <= f + _ARMIJO_C * cand * gd:
                    alpha, x_new, f_new, g_new = cand, x_cand, f_cand, g_cand
        beta = max(0.0, float(g_new @ (g_new - g)) / float(g @ g))
        if it % restart == 0:
            beta = 0.0
        direction = -g_new + beta * direction
        x, f, g = x_new, f_new, g_new
        alpha_prev = alpha
        gnorm = float(np.linalg.norm(g))
        trace.objective_values.append(f)
        trace.grad_norms.append(gnorm)
        trace.step_sizes.append(alpha)
        trace.n_iters = it
        if gnorm <= opts.grad_tol:
            trace.converged = True
            break
    trace.x = x
    return trace


def optimize_global(freqs0, density, box, opts):
    """Jointly optimize all s*d frequency coordinates to shrink the discrepancy.

    Runs scipy's L-BFGS-B on `BoxObjective.value_and_grad`, one fused pass
    per evaluation, with scipy's own stopping tests off (ftol = gtol = 0): it
    stops after ``opts.max_iters`` iterations, once ||g||_2 <=
    ``opts.grad_tol``, or when the line search fails.  The trace records
    the start and every iterate.
    """
    s, d = freqs0.points.shape
    objective = BoxObjective(density, box)
    last = []  # (x, f, g) of the latest pass

    def value_and_grad(flat):
        if not last or not np.array_equal(flat, last[0]):
            f, G = objective.value_and_grad(flat.reshape(s, d))
            last[:] = [flat.copy(), float(f), G.ravel()]
        return last[1], last[2]

    x0 = np.array(freqs0.points, dtype=float).ravel()
    f0, g0 = value_and_grad(x0)
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at the starting point: {f0}")
    trace = OptTrace(x=x0, objective_values=[f0], grad_norms=[float(np.linalg.norm(g0))])
    trace.converged = trace.grad_norms[0] <= opts.grad_tol

    def record(intermediate_result):
        # scipy updates its iterate in place, so keep a copy.  The line
        # search's last pass was at this point, so the lookup costs none.
        x = intermediate_result.x.copy()
        f, g = value_and_grad(x)
        trace.step_sizes.append(float(np.linalg.norm(x - trace.x)))
        trace.objective_values.append(f)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        trace.x = x
        trace.n_iters += 1
        if trace.grad_norms[-1] <= opts.grad_tol:
            trace.converged = True
            raise StopIteration

    if not trace.converged and opts.max_iters > 0:
        from scipy.optimize import minimize

        with _scipy_blas_single_thread():
            result = minimize(value_and_grad, x0, jac=True, method="L-BFGS-B",
                              callback=record,
                              options={"maxiter": opts.max_iters, "ftol": 0.0, "gtol": 0.0})
        # A halt from the callback also has status 2, so read the message.
        trace.line_search_failed = result.message.startswith("ABNORMAL")
    trace.freqs = FrequencySet(
        points=trace.x.reshape(s, d),
        provenance={"source": "global-adaptive", "init": freqs0.provenance,
                    "iterations": trace.n_iters},
    )
    return trace


def optimize_greedy(t_points, density, box, init_freqs, opts):
    """Grow a sequence one frequency at a time.

    Point t+1 minimizes the discrepancy of the augmented set with the
    existing points held fixed, started from the t-th row of
    ``init_freqs`` (a transformed low-discrepancy stream).  The line
    search guarantees the optimized point is no worse than its start.
    ``objective_values`` records the discrepancy after each append.

    The fixed points enter only through two running sums, their pairwise
    sinc-kernel sum and their cross-term sum, so one evaluation costs
    O(t d) and evaluates the erf at the candidate's d coordinates only.
    """
    objective = BoxObjective(density, box)
    starts = objective.rows(init_freqs.points)
    if t_points < 1:
        raise ValueError(f"optimize_greedy requires t_points >= 1, got {t_points}")
    if init_freqs.s < t_points:
        raise ValueError(
            f"init_freqs provides {init_freqs.s} starting points, need {t_points}"
        )
    d = init_freqs.d
    b = box.b
    self_pair = float(np.prod(b / math.pi))  # sinc kernel at zero lag
    factors, slopes, term3 = objective.factors, objective.slopes, objective.norm_sq
    points = np.empty((t_points, d))
    pair_sum = cross_sum = 0.0
    trace = OptTrace(x=np.empty(0), converged=True)
    for t in range(t_points):
        fixed = points[:t]
        s = t + 1

        def value_and_grad(w):
            # w's sinc factors against the fixed points, its cross factors.
            f, df = _sinc_factor(b, w - fixed, slope=True)
            W = w[None, :]
            G = factors(W)
            term1 = (pair_sum + 2.0 * float(np.prod(f, axis=1).sum()) + self_pair) / (s * s)
            term2 = -2.0 / s * (cross_sum + float(np.prod(G)))
            grad = ((2.0 / (s * s)) * (df * _exclusive_products(f)).sum(axis=0)
                    - (2.0 / s) * (slopes(W, G) * _exclusive_products(G))[0])
            return term1 + term2 + term3, grad

        inner = nonlinear_cg(value_and_grad, starts[t], opts)
        pairs = float(np.prod(_sinc_factor(b, inner.x - fixed), axis=1).sum())
        pair_sum += 2.0 * pairs + self_pair
        cross_sum += float(np.prod(factors(inner.x[None, :])))
        points[t] = inner.x
        trace.objective_values.append(inner.objective_values[-1])
        trace.grad_norms.append(inner.grad_norms[-1])
        trace.n_iters += inner.n_iters
        trace.converged &= inner.converged
        trace.line_search_failed |= inner.line_search_failed
    trace.x = points.ravel()
    trace.freqs = FrequencySet(
        points=points,
        provenance={"source": "greedy-adaptive", "init": init_freqs.provenance},
    )
    return trace


def _kkt_residual(H, v, xi):
    grad_half = H @ xi - v
    zero = xi <= 0.0
    r_neg = max(0.0, float(-xi.min(initial=0.0)))
    r_zero = float(np.maximum(-grad_half[zero], 0.0).max(initial=0.0))
    r_pos = float(np.abs(grad_half[~zero]).max(initial=0.0))
    return max(r_neg, r_zero, r_pos)


def optimize_weights(freqs, density, box):
    """Nonnegative weights minimizing xi.H.xi - 2 v.xi.

    Solves the convex quadratic program through scipy's NNLS on the
    Cholesky factor of H (jittered by 1e-12 trace(H)/s on the diagonal for
    clustered point sets), re-solved on its positive set when it stops loose.
    Returns the weights and the max-norm KKT residual
    max(||min(xi,0)||, ||min(Hxi-v,0)|| on xi=0, ||Hxi-v|| on xi>0).
    """
    if freqs.s < 1:
        raise ValueError(f"optimize_weights requires s >= 1, got {freqs.s}")
    H, v = BoxObjective(density, box).H_v(freqs.points)
    s = H.shape[0]
    jitter = 1e-12 * float(np.trace(H)) / s
    try:
        L = np.linalg.cholesky(H + jitter * np.eye(s))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "sinc Gram matrix could not be factorized even with jitter; "
            "the frequency set may contain many coincident points"
        ) from exc
    # Imported here: scipy.linalg and scipy.optimize are slow to import, and
    # only this solve uses them.
    from scipy.linalg import solve_triangular
    from scipy.optimize import nnls

    rhs = solve_triangular(L, v, lower=True)
    xi, _ = nnls(L.T, rhs)
    kkt = _kkt_residual(H, v, xi)
    if kkt > _KKT_TOL:
        # scipy's NNLS can stop loose even on a well-conditioned H.
        P = xi > 0.0
        polished = np.zeros_like(xi)
        polished[P] = np.maximum(np.linalg.solve(
            H[np.ix_(P, P)] + jitter * np.eye(P.sum()), v[P]), 0.0)
        polished_kkt = _kkt_residual(H, v, polished)
        if polished_kkt < kkt:
            xi, kkt = polished, polished_kkt
    if kkt > _KKT_TOL:
        warnings.warn(
            f"weight optimization stopped with KKT residual {kkt:.3e} > {_KKT_TOL:.1e}",
            RuntimeWarning,
        )
    return xi, kkt
