"""Ancilla-interferometer gap measurement and the iterative refinement loop.

Measurement primitive (one trial phase delta_eps, one evolution time t):

    ancilla H -> controlled excitation swap -> free evolution exp(-iHt)
    on the register -> controlled inverse swap -> phase gate
    diag(1, e^{i delta_eps t}) on the ancilla -> ancilla H -> P(|0>).

Only the phase gate depends on delta_eps, so the outcome is read from the
branch overlap z = <U phi0| E^dag U E phi0> of the register evolution U
and the excitation swap E: p0 = (1 + Re(e^{i delta_eps t} z)) / 2
(`sampling.fringe_p0`).  One z per (t, n_steps), from the register block
that `evolution.evolution_block` builds and caches, gives a whole sweep
grid in one array expression.  For eigenstate preparations this is the
pure interference fringe p0 = (1 + cos((gap - delta_eps) t)) / 2, so
scanning delta_eps and locating the peak reads off the gap directly.
`sweep` evaluates one such grid on its own.  The literal interferometer
circuit and the general eigenstate-mixture formula, the independent
references for the fringe, are test oracles (`tests/oracles.py`).

Shots mode draws one binomial count per grid point from the fringe, the
whole grid in one call on the (seed, iteration, attempt) stream of
`sampling.derived_rng`.  Noisy mode draws them from the depolarized
fringe: its mean overlap E[z] is computed exactly by
`sampling.depolarized_overlap` on every sweep, from the exchange
rotations of one Trotter step (`evolution.exchange_rotations`), the
factors whose n_steps-th power the ideal block is in closed form; the
channel's n_steps-fold transfer block is cached across runs, so a
(t, n_steps) seen before costs one contraction.  A sweep point is a
named tuple (delta_eps, p0, p0_exact).

What a run derives from its physics alone comes from bounded,
process-wide caches whose arrays are read-only and shared:
`preparation_pair` (key: the two labels and n_spins, maxsize 64) holds
phi0 and the excitation unitary, and `spin.assignment` (key: the system
and one label, maxsize 1024) the eigenspace each label selects, from
which `spin.exact_gap` takes the reference gap.  A failed build is not
cached and raises again.

The estimation loop keeps a Gaussian belief over the gap.  Each iteration
sweeps delta_eps across the prior's +-1 sigma window, fits a Gaussian
surrogate to the fringe, and multiplies prior and fit.  A failed fit is
retried on fresh shot draws, up to `fit_retry_limit` sweeps in all; an
exact sweep would only repeat itself, so it is not retried.  A fitted
mean outside the +-lambda_restart * sigma window triggers an adaptive
restart: the fitted mean becomes the new prior mean, the prior sigma and
the current (t, n_steps) are kept.  Otherwise the evolution time grows on a
half-cycle schedule t ~ pi / (2 sigma) until the posterior sigma drops
below the convergence threshold.  `EstimationResult.stop_reason` says how
a run ended: "converged", "max_iterations", "restart_limit" (that many
restarts in a row), "fit_failed" (every retry of a fit failed) or
"schedule_end" (an explicit schedule ran out first).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .evolution import evolution_block, exchange_rotations
from .fitting import FitResult, GaussianEstimate, fit_gaussian, multiply_gaussians
from .sampling import (SamplerSpec, depolarized_overlap, derived_rng, fringe_p0,
                       integer_field, sample_p0)
from .spin import SpinSystem, exact_gap, named_state

NORM_ATOL = 1e-12
ORTHOGONALITY_ATOL = 1e-10


@dataclass(frozen=True)
class PriorSpec:
    """Initial belief; uniform means flat on [mu - sigma, mu + sigma]."""

    shape: str
    mu: float
    sigma: float

    def __post_init__(self):
        if self.shape not in ("gaussian", "uniform"):
            raise ValueError(f"prior shape {self.shape!r} not recognized")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"prior needs a finite mu and a finite positive sigma, "
                             f"got {self.mu!r} and {self.sigma!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    lambda_restart: float = 0.6
    e_thre: float = 0.4
    grid_points: int = 21
    initial_t: float = 0.2
    steps_per_unit_time: float = 150.0
    max_iterations: int = 12
    evolution: str = "trotter"
    time_growth_factor: float = 5.0
    restart_limit: int = 3
    fit_retry_limit: int = 3
    explicit_schedule: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self):
        for name in ("grid_points", "max_iterations", "restart_limit", "fit_retry_limit"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        if not 0 < self.lambda_restart < 1:
            raise ValueError("lambda_restart must lie in (0, 1)")
        if not self.e_thre > 0:
            raise ValueError("e_thre must be positive")
        if self.grid_points < 5:
            raise ValueError("grid_points must be at least 5")
        if not (self.initial_t > 0 and math.isfinite(self.initial_t)):
            raise ValueError("initial_t must be positive and finite")
        if not (self.steps_per_unit_time > 0 and math.isfinite(self.steps_per_unit_time)):
            raise ValueError("steps_per_unit_time must be positive and finite")
        if not self.time_growth_factor > 0:
            raise ValueError("time_growth_factor must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.restart_limit < 1:
            raise ValueError("restart_limit must be at least 1")
        if self.fit_retry_limit < 1:
            raise ValueError("fit_retry_limit must be at least 1")
        if self.evolution not in ("exact", "trotter"):
            raise ValueError(f"evolution mode {self.evolution!r} not recognized")
        if self.explicit_schedule is not None:
            sched = tuple((float(t), integer_field(n, "schedule step count"))
                          for t, n in self.explicit_schedule)
            for t, n in sched:
                if not (math.isfinite(t) and t > 0) or n < 1:
                    raise ValueError(f"bad schedule entry ({t}, {n})")
            object.__setattr__(self, "explicit_schedule", sched)


class SweepPoint(NamedTuple):
    delta_eps: float
    p0: float
    p0_exact: float


@dataclass(frozen=True)
class IterationRecord:
    t: float
    n_steps: int
    prior: GaussianEstimate
    fit: FitResult
    posterior: GaussianEstimate
    restarted: bool
    points: tuple[SweepPoint, ...]
    fit_attempts: int


@dataclass
class EstimationResult:
    final: GaussianEstimate
    trace: list[IterationRecord]
    exact_gap: float
    accuracy: float | None
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def build_excitation_unitary(phi0, phi1) -> np.ndarray:
    """Swap-reflection unitary exchanging the two preparation states.

    U = |phi1><phi0| + |phi0><phi1| + (identity on the orthogonal
    complement); Hermitian and involutory.  phi0 and phi1 are amplitude
    vectors of one length, each normalized to within 1e-12.  The second
    state is orthogonalized against the first internally, so the
    construction is exactly unitary; inputs further than 1e-10 from
    orthogonal are rejected.
    """
    a = np.asarray(phi0, dtype=complex)
    b = np.asarray(phi1, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"preparation states need amplitude vectors of one length, "
                         f"got shapes {a.shape} and {b.shape}")
    for vec in (a, b):
        norm = float(np.sum(np.abs(vec) ** 2))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"preparation state is not normalized: |psi|^2 = {norm!r}")
    overlap = complex(np.vdot(a, b))
    if abs(overlap) > ORTHOGONALITY_ATOL:
        raise ValueError(f"preparation states are not orthogonal "
                         f"(|<phi0|phi1>| = {abs(overlap):.3e})")
    b = b - overlap * a
    b = b / np.linalg.norm(b)
    dim = a.size
    return (np.outer(b, a.conj()) + np.outer(a, b.conj())
            + np.eye(dim, dtype=complex) - np.outer(a, a.conj()) - np.outer(b, b.conj()))


@lru_cache(maxsize=64)
def preparation_pair(phi0_label: str, phi1_label: str,
                     n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only amplitude vector of the first named preparation state and
    the excitation unitary that swaps it with the second; an unknown label
    or a non-orthogonal pair raises ValueError and is not cached."""
    phi0 = named_state(phi0_label, n_spins).coefficients.astype(complex)
    phi1 = named_state(phi1_label, n_spins).coefficients.astype(complex)
    excitation = build_excitation_unitary(phi0, phi1)
    phi0.setflags(write=False)
    excitation.setflags(write=False)
    return phi0, excitation


def _branch_overlap(phi0: np.ndarray, excitation: np.ndarray, system: SpinSystem,
                    t: float, evolution: str, n_steps: int | None) -> complex:
    """z = <U phi0| E^dag U E phi0>: the two interferometer branches after
    the register evolution U, compared through the inverse swap."""
    evolved = evolution_block(system, t, evolution, n_steps)
    chi0 = evolved @ phi0
    chi1 = evolved @ (excitation @ phi0)
    return complex(np.vdot(chi0, excitation.conj().T @ chi1))


def sweep_grid(prior_mu: float, prior_sigma: float, grid_points: int) -> np.ndarray:
    return np.linspace(prior_mu - prior_sigma, prior_mu + prior_sigma, grid_points)


def _sweep_values(phi0: np.ndarray, excitation: np.ndarray, system: SpinSystem,
                  t: float, n_steps: int, grid: np.ndarray, evolution: str,
                  sampler: SamplerSpec, iteration: int,
                  attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampled and the exact p0 at each point of the grid."""
    if sampler.mode == "noisy" and evolution != "trotter":
        raise ValueError("noisy sampling requires trotterized evolution")
    z = _branch_overlap(phi0, excitation, system, t, evolution, n_steps)
    values = exact = fringe_p0(z, grid * t)
    if sampler.mode == "noisy":
        z = depolarized_overlap(phi0, excitation, exchange_rotations(system, t / n_steps),
                                n_steps, sampler.p_depol)
        values = fringe_p0(z, grid * t)
    if sampler.mode != "exact":
        values = sample_p0(values, sampler.shots,
                           derived_rng(sampler.seed, iteration, attempt))
    return values, exact


def _points(grid: np.ndarray, values: np.ndarray,
            exact: np.ndarray) -> tuple[SweepPoint, ...]:
    return tuple(map(SweepPoint, grid.tolist(), values.tolist(), exact.tolist()))


def sweep(phi0, phi1, system: SpinSystem, t: float,
          prior: PriorSpec, config: EstimatorConfig, sampler: SamplerSpec,
          n_steps: int | None = None, iteration: int = 0) -> list[SweepPoint]:
    """Standalone sweep across the prior's +-1 sigma window, from the
    amplitude vectors of the two preparation states."""
    if n_steps is None:
        n_steps = default_steps(system, t, config.steps_per_unit_time)
    phi0 = np.asarray(phi0, dtype=complex)
    excitation = build_excitation_unitary(phi0, phi1)
    grid = sweep_grid(prior.mu, prior.sigma, config.grid_points)
    values, exact = _sweep_values(phi0, excitation, system, t, n_steps, grid,
                                  config.evolution, sampler, iteration, 0)
    return list(_points(grid, values, exact))


def check_restart(prior: PriorSpec | GaussianEstimate, fit_mu: float,
                  lambda_restart: float) -> bool:
    """True when the fitted mean leaves the open +-lambda*sigma window."""
    lo = prior.mu - lambda_restart * prior.sigma
    hi = prior.mu + lambda_restart * prior.sigma
    return not lo < fit_mu < hi


def default_steps(system: SpinSystem, t: float, steps_per_unit_time: float) -> int:
    """ceil(steps_per_unit_time * t); a single coupling term commutes with
    itself, so one step is already exact there."""
    if len(system.couplings) <= 1:
        return 1
    return max(1, math.ceil(steps_per_unit_time * t))


def next_time(posterior_sigma: float, config: EstimatorConfig, system: SpinSystem,
              previous_t: float) -> tuple[float, int]:
    """Half-cycle schedule: t ~ pi / (2 sigma), rounded to 0.1, growth
    clamped to `time_growth_factor` per iteration."""
    if not posterior_sigma > 0:
        raise ValueError("posterior sigma must be positive")
    t = round(math.pi / (2.0 * posterior_sigma), 1)
    t = min(t, config.time_growth_factor * previous_t)
    t = max(t, 0.1)
    return t, default_steps(system, t, config.steps_per_unit_time)


def run_estimation(system: SpinSystem, phi0_label: str, phi1_label: str,
                   prior: PriorSpec, config: EstimatorConfig | None = None,
                   sampler: SamplerSpec | None = None) -> EstimationResult:
    """Full sweep -> fit -> restart-check -> multiply -> converge loop."""
    config = config or EstimatorConfig()
    sampler = sampler or SamplerSpec()
    phi0, excitation = preparation_pair(phi0_label, phi1_label, system.n_spins)
    gap = exact_gap(system, phi0_label, phi1_label)

    schedule = config.explicit_schedule
    if schedule:
        t, n_steps = schedule[0]
    else:
        t = config.initial_t
        n_steps = default_steps(system, t, config.steps_per_unit_time)
    schedule_index = 0

    belief = GaussianEstimate(prior.mu, prior.sigma)
    belief_is_uniform = prior.shape == "uniform"
    trace: list[IterationRecord] = []
    stop_reason = "max_iterations"
    consecutive_restarts = 0
    # An exact sweep ignores the attempt index, so a retry would repeat it.
    max_attempts = 1 if sampler.mode == "exact" else config.fit_retry_limit

    for iteration in range(config.max_iterations):
        grid = sweep_grid(belief.mu, belief.sigma, config.grid_points)
        for attempt in range(max_attempts):
            values, exact = _sweep_values(phi0, excitation, system, t, n_steps, grid,
                                          config.evolution, sampler, iteration, attempt)
            fit = fit_gaussian(grid, values, fallback_sigma=belief.sigma / 2)
            if fit.converged:
                break

        # A failed fit leaves the belief as it was; a restart carries the
        # fitted mean forward and keeps sigma and (t, n_steps).
        restarted = fit.converged and check_restart(belief, fit.mu, config.lambda_restart)
        if not fit.converged:
            posterior = belief
        elif restarted:
            posterior = GaussianEstimate(fit.mu, belief.sigma)
        elif belief_is_uniform:
            posterior = fit.estimate()
        else:
            posterior = multiply_gaussians(belief, fit.estimate())
        trace.append(IterationRecord(t, n_steps, belief, fit, posterior, restarted,
                                     _points(grid, values, exact), attempt + 1))

        if not fit.converged:
            stop_reason = "fit_failed"
            break
        consecutive_restarts = consecutive_restarts + 1 if restarted else 0
        if consecutive_restarts >= config.restart_limit:
            stop_reason = "restart_limit"
            break
        belief = posterior
        if restarted:
            continue
        belief_is_uniform = False

        if posterior.sigma < config.e_thre:
            stop_reason = "converged"
            break

        if schedule:
            schedule_index += 1
            if schedule_index >= len(schedule):
                stop_reason = "schedule_end"
                break
            t, n_steps = schedule[schedule_index]
        else:
            t, n_steps = next_time(posterior.sigma, config, system, t)

    accuracy = None
    if gap:
        accuracy = 1.0 - abs(belief.mu - gap) / abs(gap)
    return EstimationResult(final=belief, trace=trace, exact_gap=gap,
                            accuracy=accuracy, stop_reason=stop_reason)
