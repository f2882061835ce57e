"""Gaussian surrogate fitting and belief updates."""
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import gaussian_model
from qpde import fitting
from qpde.fitting import GaussianEstimate, fit_gaussian, multiply_gaussians

# Ideal sweep fringes 0.5 (1 + cos((gap - x) t)) on 21 points, whose fit
# sits on the amplitude cap: (gap, t, window centre, window half width).
CAPPED_FRINGES = [(2.0, 0.2, 0.0, 10.0), (3.0, 0.4, 2.5, 4.0),
                  (1.5, 1.0, 1.2, 1.5), (4.5, 2.0, 4.4, 0.8),
                  (0.7, 3.6, 0.75, 0.45)]


def _capped_fringe(gap, t, centre, half_width):
    x = np.linspace(centre - half_width, centre + half_width, 21)
    return x, 0.5 * (1.0 + np.cos((gap - x) * t))


# Sweeps fitted at an earlier commit, with that commit's outcome; see the
# file's description.
REPLAY_FITS = json.loads((Path(__file__).parent / "data" / "fit_replay.json")
                         .read_text())["fits"]
CONVERGED_REPLAY_FITS = [r for r in REPLAY_FITS if r["reason"] == "converged"]


def test_recovers_exact_gaussian_parameters():
    x = np.linspace(-2.0, 6.0, 21)
    y = gaussian_model(x, offset=0.5, amplitude=0.5, mu=2.0, sigma=1.0)
    fit = fit_gaussian(x, y)
    assert fit.converged
    assert fit.reason == "converged"
    assert fit.iterations > 0
    assert fit.mu == pytest.approx(2.0, abs=1e-6)
    assert fit.sigma == pytest.approx(1.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
    assert fit.offset == pytest.approx(0.5, abs=1e-6)


def test_recovery_with_asymmetric_window_and_low_contrast():
    x = np.linspace(0.0, 4.0, 31)
    y = gaussian_model(x, offset=0.31, amplitude=0.22, mu=2.6, sigma=0.5)
    fit = fit_gaussian(x, y)
    assert fit.converged
    assert fit.mu == pytest.approx(2.6, abs=1e-5)
    assert fit.sigma == pytest.approx(0.5, abs=1e-4)


def test_constant_data_falls_back():
    x = np.linspace(-1.0, 1.0, 11)
    fit = fit_gaussian(x, np.full(11, 0.5), fallback_sigma=3.0)
    assert not fit.converged
    assert fit.reason == "flat_data"
    assert fit.iterations == 0
    assert fit.sigma == 3.0
    assert fit.mu == pytest.approx(0.0, abs=1e-12)


def test_far_outside_mean_falls_back():
    # A gentle slope fits best as the flank of a wide Gaussian centred
    # some fifteen spans to the right; nothing in the window supports it.
    x = np.linspace(-1.0, 1.0, 21)
    fit = fit_gaussian(x, 0.5 + 0.01 * x, fallback_sigma=0.5)
    assert not fit.converged
    assert fit.reason == "mean_outside_window"
    assert -1.0 <= fit.mu <= 1.0


def test_unsettled_iteration_falls_back(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
    fit = fit_gaussian(*_capped_fringe(*CAPPED_FRINGES[1]), fallback_sigma=0.7)
    assert not fit.converged
    assert fit.reason == "not_settled"
    assert fit.iterations == 2
    assert fit.sigma == 0.7


def test_fallback_centroid_weights_above_median():
    x = np.linspace(0.0, 10.0, 11)
    y = np.zeros(11)
    y[7] = 1e-10  # effectively degenerate
    fit = fit_gaussian(x, y, fallback_sigma=1.5)
    assert not fit.converged


def test_cosine_sweep_peak_location():
    # Interference fringe for a gap of 2.0 scanned across a wide window.
    x = np.linspace(-10.0, 10.0, 21)
    y = 0.5 * (1.0 + np.cos((2.0 - x) * 0.2))
    fit = fit_gaussian(x, y)
    assert fit.converged
    assert fit.mu == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("fringe", CAPPED_FRINGES)
def test_capped_fringe_fit_reaches_the_weighted_minimum(fringe):
    # The amplitude sits on its cap; over the free parameters the p0^2
    # weighted cost must be stationary, not stopped on a creeping ridge.
    x, y = _capped_fringe(*fringe)
    fit = fit_gaussian(x, y)
    assert fit.converged
    assert fit.amplitude == 0.5
    span = x[-1] - x[0]
    peak = fit.amplitude * np.exp(-0.5 * ((x - fit.mu) / fit.sigma) ** 2)
    residual = fit.offset + peak - y
    cost = np.sum(y ** 2 * residual ** 2)
    gradient = 2.0 * np.array([
        np.sum(y ** 2 * residual),
        span * np.sum(y ** 2 * residual * peak * (x - fit.mu) / fit.sigma ** 2),
        span * np.sum(y ** 2 * residual * peak * (x - fit.mu) ** 2 / fit.sigma ** 3),
    ])
    assert np.max(np.abs(gradient)) / cost < 1e-2


@pytest.mark.parametrize("fringe", CAPPED_FRINGES)
def test_capped_fringe_fit_settles_in_few_steps(fringe):
    fit = fit_gaussian(*_capped_fringe(*fringe))
    assert fit.reason == "converged"
    assert fit.iterations <= 6


def test_full_period_fringe_does_not_creep_along_the_sigma_valley():
    # `qpde run --config replay_linear_chain --seed 1`, t = 4.2, exact gap
    # 1.0: a full fringe period, along which a linearly converging fit
    # creeps towards sigma -> infinity until MAX_ITERATIONS.
    x = np.linspace(0.2501242499085974, 1.7485465139611944, 21)
    y = np.array([0.0, 0.0232, 0.0996, 0.2082, 0.3366, 0.4976, 0.654, 0.794, 0.9034,
                  0.9784, 1.0, 0.9782, 0.9128, 0.7942, 0.6588, 0.492, 0.3516, 0.215,
                  0.0908, 0.0256, 0.0])
    fit = fit_gaussian(x, y, fallback_sigma=0.37460556601314926)
    assert fit.reason == "converged"
    assert fit.iterations <= 10
    assert fit.mu == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("record", CONVERGED_REPLAY_FITS,
                         ids=[f"{r['workload']}-{k}" for k, r in enumerate(CONVERGED_REPLAY_FITS)])
def test_recorded_fit_replays_to_the_same_minimum(record):
    x, y = np.array(record["x"]), np.array(record["y"])
    fit = fit_gaussian(x, y, fallback_sigma=record["fallback_sigma"])
    assert fit.reason == "converged"
    residual = gaussian_model(x, fit.offset, fit.amplitude, fit.mu, fit.sigma) - y
    assert np.sum(y ** 2 * residual ** 2) <= record["cost"] * (1 + 1e-8)
    span = x[-1] - x[0]
    assert abs(fit.mu - record["mu"]) <= 1e-5 * span
    assert abs(fit.sigma - record["sigma"]) <= 1e-5 * span


@pytest.mark.parametrize("record", REPLAY_FITS,
                         ids=[f"{r['workload']}-{k}" for k, r in enumerate(REPLAY_FITS)])
def test_recorded_fit_repeats_the_newton_path(record):
    # The exact-Hessian Newton fit recorded its accepted steps, outcome and
    # estimate (the newton_* fields); only the order of the floating-point
    # operations may differ, not the path.  The last record is the almost
    # flat sweep that takes 56 steps.
    x, y = np.array(record["x"]), np.array(record["y"])
    fit = fit_gaussian(x, y, fallback_sigma=record["fallback_sigma"])
    assert (fit.iterations, fit.reason) == (record["newton_iterations"],
                                            record["newton_reason"])
    span = x[-1] - x[0]
    assert abs(fit.mu - record["newton_mu"]) <= 1e-12 * span
    assert abs(fit.sigma - record["newton_sigma"]) <= 1e-12 * span


def test_fit_pass_calls_no_lapack(monkeypatch):
    # The per-pass definiteness test and solve run on Python floats; numpy's
    # LAPACK wrappers cost more than the 4x4 arithmetic they would do.
    def forbidden(*args, **kwargs):
        raise AssertionError("fit_gaussian called a numpy.linalg routine")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    for fringe in CAPPED_FRINGES:
        assert fit_gaussian(*_capped_fringe(*fringe)).converged
    for record in REPLAY_FITS[::10]:
        fit = fit_gaussian(np.array(record["x"]), np.array(record["y"]),
                           fallback_sigma=record["fallback_sigma"])
        assert fit.iterations == record["newton_iterations"]


def test_recorded_fits_take_fewer_steps():
    steps = sum(fit_gaussian(np.array(r["x"]), np.array(r["y"]), r["fallback_sigma"]).iterations
                for r in CONVERGED_REPLAY_FITS)
    assert steps < 0.5 * sum(r["iterations"] for r in CONVERGED_REPLAY_FITS)


def test_newton_matrix_matches_finite_difference_hessian():
    # The moment helper's gradient, and J^T W J from its moments, against a
    # central-difference Jacobian, and its Hessian of sum(w r^2) / 2 against
    # central differences of the cost.
    rng = np.random.default_rng(10)
    x = np.linspace(-1.5, 2.5, 21)
    for _ in range(20):
        theta = np.array([rng.uniform(0.0, 0.5), rng.uniform(0.05, 0.5),
                          rng.uniform(-1.0, 2.0), rng.uniform(0.2, 3.0)])
        y = np.clip(0.5 * (1 + np.cos((rng.uniform(0, 1) - x) * rng.uniform(0.3, 2)))
                    + rng.normal(0, 0.02, x.size), 0, 1)
        weights = y ** 2

        def residual(th):
            return gaussian_model(x, *th) - y

        def half_cost(th):
            return 0.5 * np.sum(weights * residual(th) ** 2)

        h = 1e-4 * np.array([1.0, 1.0, 1.0, theta[3]])
        eye = np.diag(h)
        jac = np.column_stack([(residual(theta + e) - residual(theta - e)) / (2 * e.sum())
                               for e in eye])
        expected = np.array([[(half_cost(theta + ei + ej) - half_cost(theta + ei - ej)
                               - half_cost(theta - ei + ej) + half_cost(theta - ei - ej))
                              / (4 * hi * hj) for ej, hj in zip(eye, h)]
                             for ei, hi in zip(eye, h)])
        u = (x - theta[2]) / theta[3]
        gradient, hessian, moments = fitting._newton_system(
            u ** np.arange(5)[:, None], np.exp(-0.5 * u ** 2), weights,
            weights * residual(theta), weights.sum(), theta[1], theta[3])
        gradient, gauss_newton, hessian = (np.array(part) for part in (
            gradient, fitting._gauss_newton(hessian, *moments), hessian))
        expected_gradient = (jac * weights[:, None]).T @ residual(theta)
        expected_gauss_newton = (jac * weights[:, None]).T @ jac
        for got, want in ((gradient, expected_gradient), (gauss_newton, expected_gauss_newton),
                          (hessian, expected)):
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def _reference_bounded_step(lhs, gradient, theta, free):
    """The damped step on numpy arrays with np.linalg.solve, pinning each
    parameter whose step crosses its bound; also returns the pinned count."""
    lower, upper = np.array(fitting.LOWER), np.array(fitting.UPPER)
    step = np.zeros(theta.size)
    pinned = 0
    while True:
        rhs = -(gradient + lhs[:, ~free] @ step[~free])
        step[free] = np.linalg.solve(lhs[free][:, free], rhs[free])
        target = np.clip(theta + step, lower, upper)
        crossed = free & (target != theta + step)
        if not crossed.any():
            return step, pinned
        step[crossed] = target[crossed] - theta[crossed]
        free = free & ~crossed
        pinned += int(crossed.sum())


def test_bounded_step_matches_numpy_reference():
    rng = np.random.default_rng(2024)
    pinned = 0
    for _ in range(500):
        jac = rng.normal(size=(21, 4)) * rng.uniform(0.1, 10, size=4)
        normal = (jac * rng.uniform(0, 1, size=(21, 1))).T @ jac
        lhs = normal + rng.choice([1e-6, 1e-3, 1.0]) * np.diag(np.diag(normal) + 1e-12)
        gradient = rng.normal(size=4) * rng.uniform(0.1, 10, size=4)
        # Offset and amplitude start on, near or well inside their bounds,
        # and are held at random; mu and sigma have no bounds.
        theta = np.array([rng.choice([0.0, 1e-4, 0.5, 0.9999, 1.0]),
                          rng.choice([1e-9, 1e-3, 0.25, 0.4999, 0.5]),
                          rng.normal(), rng.uniform(0.1, 3)])
        free = np.array([rng.random() < 0.7, rng.random() < 0.7, True, True])
        expected, crossed = _reference_bounded_step(lhs, gradient, theta, free)
        step = fitting._bounded_step(fitting._unit_rows(lhs.tolist(), free.tolist()),
                                     gradient.tolist(), theta.tolist(), free.tolist())
        assert np.max(np.abs(np.array(step) - expected)) <= 1e-12 * np.max(np.abs(expected))
        pinned += crossed > 0
    assert pinned > 50


def test_cholesky_matches_numpy_on_free_blocks():
    # A held parameter's unit row and column leave the free block's factor
    # and solution as numpy computes them on the block alone, and the
    # factor raises exactly when the block is not positive definite.
    rng = np.random.default_rng(31)
    outcomes = {True: 0, False: 0}
    while min(outcomes.values()) < 300:
        root = rng.normal(size=(4, 4)) * rng.uniform(0.1, 10, size=4)
        matrix = root @ root.T - rng.uniform(0, 1) * np.trace(root @ root.T) / 4 * np.eye(4)
        free = rng.random(4) < 0.7
        block = matrix[free][:, free]
        if not free.any() or np.min(np.abs(np.linalg.eigvalsh(block))) <= 1e-6:
            continue
        unit = fitting._unit_rows(matrix.tolist(), free.tolist())
        try:
            expected = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                fitting._cholesky(unit)
            outcomes[False] += 1
            continue
        factor = fitting._cholesky(unit)
        lower = np.zeros((4, 4))
        lower[np.tril_indices(4)] = factor
        assert np.max(np.abs(lower[free][:, free] - expected)) <= 1e-12 * np.max(np.abs(expected))
        held = np.eye(4)[~free]
        assert np.array_equal(lower[~free], held) and np.array_equal(lower[:, ~free].T, held)
        rhs = np.where(free, rng.normal(size=4), 0.0)
        solution = np.array(fitting._solve(factor, rhs.tolist()))
        want = np.linalg.solve(block, rhs[free])
        assert np.max(np.abs(solution[free] - want)) <= (1e-12 * np.linalg.cond(block)
                                                         * np.max(np.abs(want)))
        assert not solution[~free].any()
        outcomes[True] += 1


def test_needs_five_points():
    with pytest.raises(ValueError, match="5"):
        fit_gaussian(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.9, 0.1]))


def test_amplitude_respects_interference_cap():
    x = np.linspace(-4.0, 4.0, 41)
    y = 0.5 * (1.0 + np.cos(x * 1.5))
    fit = fit_gaussian(x, y)
    assert fit.converged
    assert 0 < fit.amplitude <= 0.5
    assert 0 <= fit.offset <= 1.0


def test_multiply_gaussians_symmetric_case():
    out = multiply_gaussians(GaussianEstimate(3.0, 2.0), GaussianEstimate(3.0, 2.0))
    assert out.mu == pytest.approx(3.0)
    assert out.sigma == pytest.approx(2.0 / np.sqrt(2.0))


def test_multiply_gaussians_closed_form():
    out = multiply_gaussians(GaussianEstimate(0.0, 10.0), GaussianEstimate(2.0, 5.0))
    assert out.mu == pytest.approx(1.6)
    assert out.sigma == pytest.approx(np.sqrt(20.0))


def test_multiply_gaussians_always_shrinks():
    rng = np.random.default_rng(6)
    for _ in range(200):
        prior = GaussianEstimate(rng.normal(), rng.uniform(0.1, 10))
        fit = GaussianEstimate(rng.normal(), rng.uniform(0.1, 10))
        out = multiply_gaussians(prior, fit)
        assert out.sigma < min(prior.sigma, fit.sigma)


def test_gaussian_estimate_requires_positive_sigma():
    with pytest.raises(ValueError):
        GaussianEstimate(0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianEstimate(0.0, -1.0)
