"""Gaussian peak surrogate for interference sweeps.

The sweep data is a probability curve of the form
p0 = 1/2 + 1/2 * sum_k w_k cos((gap_k - x) t) with sum w_k <= 1, so the
principal fringe never swings more than 1/2 above its own baseline.  The
fit therefore clamps amplitude to (0, 1/2] and offset to [0, 1]; both
shrink freely below those caps on decohered or shot-sampled data.  The
least squares is weighted by p0^2 so the peak region - the part that
carries the gap information - dominates, which keeps the surrogate width
near the fringe's curvature width instead of chasing the cosine tails.

Solved by a damped Gauss-Newton iteration (Levenberg-style diagonal
damping with accept/reject steps) starting from
(min, max - min, argmax, span/4).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AMPLITUDE_MAX = 0.5
MAX_ITERATIONS = 300
STEP_TOL = 1e-11
STAGNATION_REL = 1e-7
STAGNATION_RUNS = 3


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

    def estimate(self) -> GaussianEstimate:
        return GaussianEstimate(self.mu, self.sigma)


def gaussian_model(x: np.ndarray, offset: float, amplitude: float,
                   mu: float, sigma: float) -> np.ndarray:
    return offset + amplitude * np.exp(-0.5 * ((x - mu) / sigma) ** 2)


def multiply_gaussians(prior: GaussianEstimate,
                       fit: GaussianEstimate) -> GaussianEstimate:
    """Product of two Gaussians, renormalized; variance always shrinks."""
    vp, vf = prior.sigma ** 2, fit.sigma ** 2
    mu = (prior.mu * vf + fit.mu * vp) / (vp + vf)
    sigma = np.sqrt(vp * vf / (vp + vf))
    return GaussianEstimate(mu, float(sigma))


def _fallback(x: np.ndarray, y: np.ndarray, fallback_sigma: float) -> FitResult:
    """Probability-weighted centroid of the above-median points."""
    median = float(np.median(y))
    mask = y >= median
    weights = np.clip(y[mask], 1e-12, None)
    mu = float(np.sum(weights * x[mask]) / np.sum(weights))
    lo, hi = float(np.min(y)), float(np.max(y))
    return FitResult(mu=mu, sigma=float(fallback_sigma),
                     amplitude=min(hi - lo, AMPLITUDE_MAX), offset=lo,
                     converged=False,
                     residual_norm=float(np.linalg.norm(y - np.mean(y))))


def fit_gaussian(delta_eps: np.ndarray, p0: np.ndarray,
                 fallback_sigma: float | None = None) -> FitResult:
    """Weighted least-squares Gaussian fit of a sweep.

    Returns converged=False (with the centroid fallback estimate) on
    degenerate data, when the iteration fails to settle, or when the
    fitted mean lies more than one sweep span outside the swept window;
    callers decide what to do with a failed fit.  fallback_sigma defaults
    to a quarter of the sweep span.
    """
    x = np.asarray(delta_eps, dtype=float)
    y = np.asarray(p0, dtype=float)
    if x.size != y.size:
        raise ValueError("delta_eps and p0 lengths differ")
    if x.size < 5:
        raise ValueError(f"need at least 5 sweep points, got {x.size}")
    span = float(np.max(x) - np.min(x))
    if fallback_sigma is None:
        fallback_sigma = span / 4 if span > 0 else 1.0
    lo, hi = float(np.min(y)), float(np.max(y))
    if not np.all(np.isfinite(y)) or hi - lo < 1e-9 or span <= 0:
        return _fallback(x, y, fallback_sigma)

    weights = y ** 2
    sigma_floor = 1e-9 * span

    def clamp(theta: np.ndarray) -> np.ndarray:
        offset, amplitude, mu, sigma = theta
        return np.array([
            min(max(offset, 0.0), 1.0),
            min(max(amplitude, 1e-9), AMPLITUDE_MAX),
            mu,
            max(abs(sigma), sigma_floor),
        ])

    theta = clamp(np.array([lo, hi - lo, x[int(np.argmax(y))], span / 4]))

    def cost_of(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        offset, amplitude, mu, sigma = theta
        shape = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        residual = offset + amplitude * shape - y
        return float(np.sum(weights * residual ** 2)), residual, shape

    cost, residual, shape = cost_of(theta)
    damping = 1e-3
    settled = False
    stagnant = 0
    for _ in range(MAX_ITERATIONS):
        offset, amplitude, mu, sigma = theta
        jac = np.empty((x.size, 4))
        jac[:, 0] = 1.0
        jac[:, 1] = shape
        jac[:, 2] = amplitude * shape * (x - mu) / sigma ** 2
        jac[:, 3] = amplitude * shape * (x - mu) ** 2 / sigma ** 3
        jw = jac * weights[:, None]
        gradient = jw.T @ residual
        normal = jw.T @ jac
        accepted = False
        for _ in range(30):
            lhs = normal + damping * np.diag(np.diag(normal) + 1e-12)
            try:
                step = np.linalg.solve(lhs, -gradient)
            except np.linalg.LinAlgError:
                damping *= 10
                continue
            candidate = clamp(theta + step)
            cand_cost, cand_residual, cand_shape = cost_of(candidate)
            if cand_cost < cost * (1.0 - 1e-12) - 1e-20:
                improvement = (cost - cand_cost) / cost
                theta, cost = candidate, cand_cost
                residual, shape = cand_residual, cand_shape
                damping = max(damping / 10, 1e-12)
                accepted = True
                break
            damping *= 10
        if not accepted:
            settled = True  # no further improvement possible
            break
        if np.max(np.abs(step)) < STEP_TOL:
            settled = True
            break
        # The clamped problem can leave a sloppy ridge where the cost only
        # creeps; parameters are long stable by then, so call it settled.
        stagnant = stagnant + 1 if improvement < STAGNATION_REL else 0
        if stagnant >= STAGNATION_RUNS:
            settled = True
            break

    offset, amplitude, mu, sigma = theta
    # An almost flat fringe lets the mean run off: a peak more than a span
    # beyond the swept window is not supported by the data.
    if (not settled or not np.all(np.isfinite(theta)) or sigma <= sigma_floor
            or not np.min(x) - span <= mu <= np.max(x) + span):
        return _fallback(x, y, fallback_sigma)
    return FitResult(mu=float(mu), sigma=float(sigma), amplitude=float(amplitude),
                     offset=float(offset), converged=True,
                     residual_norm=float(np.sqrt(np.sum(residual ** 2))))
