"""Gaussian peak surrogate for interference sweeps.

The sweep data is a probability curve of the form
p0 = 1/2 + 1/2 * sum_k w_k cos((gap_k - x) t) with sum w_k <= 1, so the
principal fringe never swings more than 1/2 above its own baseline.  The
fit therefore clamps amplitude to (0, 1/2] and offset to [0, 1]; both
shrink freely below those caps on decohered or shot-sampled data.  The
least squares is weighted by p0^2 so the peak region - the part that
carries the gap information - dominates, which keeps the surrogate width
near the fringe's curvature width instead of chasing the cosine tails.

Solved by projected damped Newton from (min, max - min, argmax, span/4):
a parameter on a bound that the gradient pushes further out - typically
the amplitude on its cap - is held, one whose step would cross a bound is
pinned there, and the Levenberg-damped Newton equations are solved over
the rest.  The cosine fringe never matches the Gaussian, so the residual
stays large and Gauss-Newton alone converges only linearly, zigzagging
along the mu-sigma valley; the exact Hessian - J^T W J plus the residual
curvature - is used whenever it is positive definite over the free
parameters, and J^T W J otherwise.  A clamped candidate is kept if it
lowers the cost.  The iteration stops at the constrained minimum, when the
clamped step is below STEP_ABS in offset and amplitude and STEP_REL of the
span in mu and sigma, or when 30 damping raises in a row find no lower
cost.  Numpy computes the residual and, in one product with a table of
u^0 ... u^4, the moments sum(u^k v) from which the gradient and the
Hessian are assembled, and J^T W J only when it is needed.  The algebra
is written out for its one size, 4x4, on Python floats, which cost less
here than numpy's dispatch: a held or pinned parameter's row and column
become the unit vector and its right-hand side 0, which adds only exact
zeros to the straight-line Cholesky factor and solve of the free block,
so no sub-matrix is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AMPLITUDE_MAX = 0.5
MAX_ITERATIONS = 300
STEP_REL = 1e-6    # of the sweep span, for mu and sigma
STEP_ABS = 1e-6    # for offset and amplitude
LOWER = (0.0, 1e-9, -math.inf, -math.inf)    # offset, amplitude, mu, sigma
UPPER = (1.0, AMPLITUDE_MAX, math.inf, math.inf)


@dataclass(frozen=True)
class GaussianEstimate:
    """A (mean, standard deviation) belief about the energy gap."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class FitResult:
    mu: float
    sigma: float
    amplitude: float
    offset: float
    converged: bool
    residual_norm: float
    iterations: int = 0        # accepted Newton steps
    reason: str = "converged"  # or flat_data, not_settled, sigma_floor, mean_outside_window

    def estimate(self) -> GaussianEstimate:
        return GaussianEstimate(self.mu, self.sigma)


def multiply_gaussians(prior: GaussianEstimate,
                       fit: GaussianEstimate) -> GaussianEstimate:
    """Product of two Gaussians, renormalized; variance always shrinks."""
    vp, vf = prior.sigma ** 2, fit.sigma ** 2
    mu = (prior.mu * vf + fit.mu * vp) / (vp + vf)
    sigma = np.sqrt(vp * vf / (vp + vf))
    return GaussianEstimate(mu, float(sigma))


def _fallback(x: np.ndarray, y: np.ndarray, fallback_sigma: float,
              reason: str, iterations: int = 0) -> FitResult:
    """Probability-weighted centroid of the above-median points."""
    median = float(np.median(y))
    mask = y >= median
    weights = np.clip(y[mask], 1e-12, None)
    mu = float(np.sum(weights * x[mask]) / np.sum(weights))
    lo, hi = float(np.min(y)), float(np.max(y))
    return FitResult(mu=mu, sigma=float(fallback_sigma),
                     amplitude=min(hi - lo, AMPLITUDE_MAX), offset=lo,
                     converged=False, iterations=iterations, reason=reason,
                     residual_norm=float(np.linalg.norm(y - np.mean(y))))


def _newton_system(powers: np.ndarray, shape: np.ndarray, weights: np.ndarray,
                   weighted_residual: np.ndarray, weight_sum: float,
                   amplitude: float, sigma: float) -> tuple[list, list, tuple]:
    """Gradient and Hessian of sum(w r^2) / 2, and the moments from which
    `_gauss_newton` builds J^T W J.  The model's derivatives are
    (1, s, g s u, g s u^2) with g = amplitude / sigma, so every entry is a
    moment sum(u^k v), v in (w s, w s^2, w r, w r s), taken against
    `powers`, whose rows are u^0 ... u^4."""
    ws = weights * shape
    ((s0, ss0, r0, rs0), (s1, ss1, _, rs1), (s2, ss2, _, rs2), (_, ss3, _, rs3),
     (_, ss4, _, rs4)) = (powers @ np.array((ws, ws * shape, weighted_residual,
                                             weighted_residual * shape)).T).tolist()
    g = amplitude / sigma
    gg, curvature = g * g, g / sigma
    gradient = [r0, rs0, g * rs1, g * rs2]
    a_mu, a_sigma = g * ss1 + rs1 / sigma, g * ss2 + rs2 / sigma
    mu_sigma = gg * ss3 + curvature * (rs3 - 2 * rs1)
    hessian = [[weight_sum, s0, g * s1, g * s2],
               [s0, ss0, a_mu, a_sigma],
               [g * s1, a_mu, gg * ss2 + curvature * (rs2 - rs0), mu_sigma],
               [g * s2, a_sigma, mu_sigma, gg * ss4 + curvature * (rs4 - 3 * rs2)]]
    return gradient, hessian, (g, ss1, ss2, ss3, ss4)


def _gauss_newton(hessian: list, g: float, ss1: float, ss2: float, ss3: float,
                  ss4: float) -> list:
    """J^T W J: the Hessian of `_newton_system` without its residual terms,
    which enter only where a mu or sigma column meets the amplitude, mu or
    sigma row."""
    row0, (s0, ss0, *_), (gs1, *_), (gs2, *_) = hessian
    gg = g * g
    return [row0, [s0, ss0, g * ss1, g * ss2], [gs1, g * ss1, gg * ss2, gg * ss3],
            [gs2, g * ss2, gg * ss3, gg * ss4]]


def _unit_rows(matrix: list, free: list) -> list:
    """`matrix` with each row and column not in `free` replaced by the unit vector."""
    rows = [row[:] if is_free else [0.0] * 4 for row, is_free in zip(matrix, free)]
    for k, is_free in enumerate(free):
        if not is_free:
            for row in rows:
                row[k] = 0.0
            rows[k][k] = 1.0
    return rows


def _root(pivot: float) -> float:
    if not pivot > 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return math.sqrt(pivot)


def _cholesky(a: list) -> tuple:
    """Lower Cholesky factor (l00, l10, l11, l20, ..., l33) of a symmetric 4x4
    matrix; raises LinAlgError, as LAPACK does, when a pivot is not positive."""
    (a00, *_), (a10, a11, *_), (a20, a21, a22, _), (a30, a31, a32, a33) = a
    l00 = _root(a00)
    l10, l20, l30 = a10 / l00, a20 / l00, a30 / l00
    l11 = _root(a11 - l10 * l10)
    l21, l31 = (a21 - l20 * l10) / l11, (a31 - l30 * l10) / l11
    l22 = _root(a22 - l20 * l20 - l21 * l21)
    l32 = (a32 - l30 * l20 - l31 * l21) / l22
    return (l00, l10, l11, l20, l21, l22, l30, l31, l32,
            _root(a33 - l30 * l30 - l31 * l31 - l32 * l32))


def _solve(factor: tuple, rhs: list) -> list:
    """L L^T @ solution = rhs for the factor L of `_cholesky`."""
    (l00, l10, l11, l20, l21, l22, l30, l31, l32, l33), (b0, b1, b2, b3) = factor, rhs
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    x3 = (b3 - l30 * y0 - l31 * y1 - l32 * y2) / l33 / l33
    x2 = (y2 - l32 * x3) / l22
    x1 = (y1 - l31 * x3 - l21 * x2) / l11
    return [(y0 - l30 * x3 - l20 * x2 - l10 * x1) / l00, x1, x2, x3]


def _bounded_step(lhs: list, gradient: list, theta: list, free: list) -> list:
    """Solve lhs @ step = -gradient over `free`, the other rows of lhs being unit;
    a parameter whose step would cross its bound is pinned there and the rest re-solved."""
    step, free, matrix = [0.0] * 4, list(free), lhs
    rhs = [-g if is_free else 0.0 for is_free, g in zip(free, gradient)]
    while True:
        solution = _solve(_cholesky(matrix), rhs)
        crossed = False
        for k, value in enumerate(solution):
            if free[k]:
                target = min(max(theta[k] + value, LOWER[k]), UPPER[k])
                if target == theta[k] + value:
                    step[k] = value
                else:
                    step[k], free[k], crossed = target - theta[k], False, True
        if not crossed:
            return step
        matrix = _unit_rows(lhs, free)
        pinned = [0.0 if is_free else value for is_free, value in zip(free, step)]
        rhs = [-(g + sum([a * b for a, b in zip(row, pinned)])) if is_free else 0.0
               for is_free, g, row in zip(free, gradient, lhs)]


def fit_gaussian(delta_eps: np.ndarray, p0: np.ndarray,
                 fallback_sigma: float | None = None) -> FitResult:
    """Weighted least-squares Gaussian fit of a sweep.

    Returns converged=False (with the centroid fallback estimate and the
    reason) on degenerate data, when the iteration fails to settle, when
    sigma ends on its floor, or when the fitted mean lies more than one
    sweep span outside the swept window; callers decide what to do with a
    failed fit.  fallback_sigma defaults to a quarter of the sweep span.
    """
    x = np.asarray(delta_eps, dtype=float)
    y = np.asarray(p0, dtype=float)
    if x.size != y.size:
        raise ValueError("delta_eps and p0 lengths differ")
    if x.size < 5:
        raise ValueError(f"need at least 5 sweep points, got {x.size}")
    span = float(x.max() - x.min())
    if fallback_sigma is None:
        fallback_sigma = span / 4 if span > 0 else 1.0
    lo, hi = float(y.min()), float(y.max())
    if not np.isfinite(y).all() or hi - lo < 1e-9 or span <= 0:
        return _fallback(x, y, fallback_sigma, "flat_data")

    weights = y ** 2
    weight_sum = float(weights.sum())
    sigma_floor = 1e-9 * span
    span_tol = STEP_REL * span
    powers = np.ones((5, x.size))  # u^0 ... u^4 of the current theta

    def clamp(offset: float, amplitude: float, mu: float, sigma: float) -> list:
        return [min(max(offset, LOWER[0]), UPPER[0]), min(max(amplitude, LOWER[1]), UPPER[1]),
                mu, max(abs(sigma), sigma_floor)]

    theta = clamp(lo, hi - lo, float(x[int(y.argmax())]), span / 4)

    def cost_of(theta: list) -> tuple[float, tuple]:
        """The weighted cost, and (u, shape, residual, w r) for the next pass."""
        offset, amplitude, mu, sigma = theta
        u = (x - mu) / sigma
        shape = np.exp(-0.5 * u * u)
        residual = offset + amplitude * shape - y
        weighted_residual = weights * residual
        return float(weighted_residual @ residual), (u, shape, residual, weighted_residual)

    cost, (u, shape, residual, weighted_residual) = cost_of(theta)
    damping = 1e-3
    settled = False
    iterations = 0
    while not settled and iterations < MAX_ITERATIONS:
        powers[1] = u
        np.multiply(u, u, out=powers[2])
        np.multiply(powers[1:3], powers[2], out=powers[3:])
        offset, amplitude, mu, sigma = theta
        gradient, hessian, moments = _newton_system(
            powers, shape, weights, weighted_residual, weight_sum, amplitude, sigma)
        free = [not (value >= upper and slope < 0 or value <= lower and slope > 0)
                for value, slope, lower, upper in zip(theta, gradient, LOWER, UPPER)]
        try:  # the Newton matrix must be a descent metric over the free set
            _cholesky(normal := _unit_rows(hessian, free))
        except np.linalg.LinAlgError:
            normal = _unit_rows(_gauss_newton(hessian, *moments), free)
        settled = True  # unless a step below lowers the cost
        for _ in range(30):
            lhs = [row[:] for row in normal]
            for k, row in enumerate(lhs):
                row[k] += damping * (row[k] + 1e-12)
            try:
                d_off, d_amp, d_mu, d_sigma = _bounded_step(lhs, gradient, theta, free)
            except np.linalg.LinAlgError:
                damping *= 10
                continue
            candidate = clamp(offset + d_off, amplitude + d_amp, mu + d_mu, sigma + d_sigma)
            new_offset, new_amplitude, new_mu, new_sigma = candidate
            if (abs(new_offset - offset) < STEP_ABS and abs(new_amplitude - amplitude) < STEP_ABS
                    and abs(new_mu - mu) < span_tol and abs(new_sigma - sigma) < span_tol):
                break  # at the minimum
            cand_cost, cand_arrays = cost_of(candidate)
            if cand_cost < cost * (1.0 - 1e-12) - 1e-20:
                theta, cost = candidate, cand_cost
                u, shape, residual, weighted_residual = cand_arrays
                damping = max(damping / 10, 1e-12)
                iterations += 1
                settled = False
                break
            damping *= 10

    offset, amplitude, mu, sigma = theta
    # An almost flat fringe lets the mean run off: a peak more than a span
    # beyond the swept window is not supported by the data.
    reason = ("not_settled" if not settled or not all(map(math.isfinite, theta))
              else "sigma_floor" if sigma <= sigma_floor
              else "mean_outside_window" if not x.min() - span <= mu <= x.max() + span
              else "converged")
    if reason != "converged":
        return _fallback(x, y, fallback_sigma, reason, iterations)
    return FitResult(mu=float(mu), sigma=float(sigma), amplitude=float(amplitude),
                     offset=float(offset), converged=True, iterations=iterations,
                     residual_norm=math.sqrt(residual @ residual))
