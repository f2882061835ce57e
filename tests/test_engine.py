"""Interferometer measurement, the refinement loop, and restart semantics."""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qpde.engine as engine
from oracles import (PAULI_Z, TrotterPlan, analytic_p0, build_hamiltonian, circuit_p0,
                     circuit_unitary, trotter_circuit)
from qpde.engine import (EstimatorConfig, PriorSpec, build_excitation_unitary,
                         check_restart, default_steps, next_time, run_estimation,
                         sweep, sweep_grid)
from qpde.evolution import evolution_block, exchange_rotations
from qpde.fitting import FitResult, GaussianEstimate
from qpde import sampling, spin
from qpde.sampling import SamplerSpec
from qpde.spin import (SpinSystem, linear_chain, named_state, system_eigensystem, triangle,
                       two_spin_system)


def _states(system, ground, excited):
    return (named_state(ground, system.n_spins).coefficients.astype(complex),
            named_state(excited, system.n_spins).coefficients.astype(complex))


def _sweep_p0(phi0, phi1, system, t, centre, evolution="exact", n_steps=None,
              half_width=1.0, grid_points=5):
    """(delta_eps, ideal p0) of a production sweep across centre +- half_width."""
    points = sweep(phi0, phi1, system, t, PriorSpec("gaussian", centre, half_width),
                   EstimatorConfig(evolution=evolution, grid_points=grid_points),
                   SamplerSpec(mode="exact"), n_steps=n_steps)
    return [(point.delta_eps, point.p0) for point in points]


def _centre_p0(*args, **kwargs):
    """Ideal p0 of a production sweep at its centre delta_eps."""
    points = _sweep_p0(*args, **kwargs)
    return points[len(points) // 2][1]


def test_excitation_unitary_swaps_and_reflects():
    phi0, phi1 = _states(two_spin_system(1.0), "T", "S")
    u = build_excitation_unitary(phi0, phi1)
    assert np.allclose(u @ phi0, phi1, atol=1e-12)
    assert np.allclose(u @ phi1, phi0, atol=1e-12)
    assert np.allclose(u, u.conj().T, atol=1e-12)          # Hermitian
    assert np.allclose(u @ u, np.eye(4), atol=1e-12)        # involution
    # On the T/S pair the action restricted to span{|01>, |10>} is Z on
    # the first spin.
    z1 = np.kron(PAULI_Z, np.eye(2))
    for vec in (phi0, phi1):
        assert np.allclose(u @ vec, z1 @ vec, atol=1e-12)


def test_excitation_unitary_three_spin_pair():
    phi0, phi1 = _states(linear_chain(1.0, 1.0), "Q", "D2")
    u = build_excitation_unitary(phi0, phi1)
    overlap = np.vdot(phi1, u @ phi0)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phi0, phi1", [
    (np.array([np.sqrt(1 + 1e-9), 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])),
    (np.array([1.0, 0.0, 0.0, 0.0]), np.eye(8)[1]),
], ids=["norm_off_by_1e-9", "lengths_4_and_8"])
def test_preparation_vectors_are_checked_at_the_boundary(phi0, phi1):
    # Amplitude vectors arrive from outside the package: a norm further
    # than 1e-12 from 1 or two lengths that differ are rejected before any
    # matrix is built, by the standalone sweep as well.
    system = two_spin_system(1.0)
    with pytest.raises(ValueError):
        build_excitation_unitary(phi0, phi1)
    with pytest.raises(ValueError):
        sweep(phi0, phi1, system, 0.2, PriorSpec("gaussian", 2.0, 1.0),
              EstimatorConfig(), SamplerSpec(mode="exact"))


def test_excitation_unitary_rejects_non_orthogonal():
    phi0 = np.array([1.0, 0.0])
    tilted = np.array([np.sqrt(0.02), np.sqrt(0.98)])
    with pytest.raises(ValueError, match="orthogonal"):
        build_excitation_unitary(phi0, tilted)


def test_p0_peaks_exactly_at_the_gap():
    system = two_spin_system(1.0)
    phi0, phi1 = _states(system, "T", "S")
    assert _centre_p0(phi0, phi1, system, 0.2, 2.0) == pytest.approx(1.0, abs=1e-12)
    # Half a period away the fringe bottoms out.
    t = 0.5
    delta = 2.0 + np.pi / t
    assert _centre_p0(phi0, phi1, system, t, delta) == pytest.approx(0.0, abs=1e-12)


def test_p0_matches_cosine_formula():
    system = two_spin_system(1.0)
    phi0, phi1 = _states(system, "T", "S")
    for delta, value in _sweep_p0(phi0, phi1, system, 0.2, 0.0, half_width=3.0):
        assert value == pytest.approx(0.5 * (1 + np.cos((2.0 - delta) * 0.2)), abs=1e-12)


def test_circuit_matches_mixture_formula_for_eigenstate_pairs():
    rng = np.random.default_rng(123)
    for _ in range(60):
        if rng.random() < 0.4:
            system = two_spin_system(rng.uniform(-2, 2))
        else:
            system = triangle(*rng.uniform(-2, 2, size=3))
        values, vectors = system_eigensystem(system)
        dim = values.size
        j, k = rng.choice(dim, size=2, replace=False)
        phi0 = vectors[:, j]
        phi1 = vectors[:, k]
        t = rng.uniform(0, 5)
        delta = rng.uniform(-10, 10)
        circuit_value = circuit_p0(phi0, build_excitation_unitary(phi0, phi1), system,
                                   t, delta)
        c = np.zeros(dim)
        c[j] = 1.0
        d = np.zeros(dim)
        d[k] = 1.0
        formula = analytic_p0(c, d, values, t, delta)
        assert circuit_value == pytest.approx(formula, abs=1e-9)


def test_trotter_p0_approaches_exact_p0():
    # The probability's leading product-formula error is quadratic in 1/n:
    # the first-order term is a diagonal expectation of a commutator of
    # real-symmetric operators in a real eigenstate, which vanishes.  So
    # doubling the step count cuts the p0 error by ~4 (and never less
    # than the operator-norm factor of 2).
    system = triangle(1.0, 1.0, 1.0)
    phi0, phi1 = _states(system, "Q", "D2")
    exact = _centre_p0(phi0, phi1, system, 0.8, 2.2)
    errors = []
    for n_steps in (20, 40, 80):
        value = _centre_p0(phi0, phi1, system, 0.8, 2.2,
                           evolution="trotter", n_steps=n_steps)
        errors.append(abs(value - exact))
    assert errors[0] > errors[1] > errors[2]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_analytic_p0_mixture_and_edge_cases():
    energies = np.array([-1.05, 2.1036, -0.0036])
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, np.sqrt(0.9983), np.sqrt(0.0017)])
    # t = 0 gives certainty regardless of the mixture.
    assert analytic_p0(c, d, energies, 0.0, 3.0) == pytest.approx(1.0)
    # Dominant component peaks at its own gap.
    peak = analytic_p0(c, d, energies, 1.2, 2.1036 + 1.05)
    off = analytic_p0(c, d, energies, 1.2, 1.0)
    assert peak > off
    with pytest.raises(ValueError, match="normalized"):
        analytic_p0(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                    np.array([0.0, 1.0]), 1.0, 0.0)


def test_asymmetric_chain_signal_is_two_component_mixture():
    system = linear_chain(1.0, 1.1)
    phi0, phi1 = _states(system, "Q", "D1")
    values, vectors = system_eigensystem(system)
    c = vectors.conj().T @ phi0
    d = vectors.conj().T @ phi1
    weights = np.abs(d) ** 2
    assert np.sort(weights)[-1] > 0.99  # dominant upper-doublet component
    for delta, value in _sweep_p0(phi0, phi1, system, 1.2, 2.0, half_width=2.0,
                                  grid_points=21):
        formula = analytic_p0(c, d, values, 1.2, delta)
        assert value == pytest.approx(formula, abs=1e-9)


def test_sweep_grid_is_inclusive_uniform():
    grid = sweep_grid(0.0, 10.0, 3)
    assert np.allclose(grid, [-10.0, 0.0, 10.0])


def test_sweep_exact_mode_points():
    system = two_spin_system(1.0)
    phi0, phi1 = _states(system, "T", "S")
    config = EstimatorConfig(evolution="exact")
    points = sweep(phi0, phi1, system, 0.2, PriorSpec("gaussian", 0.0, 10.0),
                   config, SamplerSpec(mode="exact"))
    assert len(points) == config.grid_points
    assert all(p.p0 == p.p0_exact for p in points)
    best = max(points, key=lambda p: p.p0)
    spacing = 20.0 / (config.grid_points - 1)
    assert abs(best.delta_eps - 2.0) <= spacing


@pytest.mark.parametrize("evolution", ["exact", "trotter"])
@pytest.mark.parametrize("system, ground, excited", [
    (two_spin_system(0.8), "T", "S"),
    (triangle(0.7, 1.3, 0.9), "Q", "D2"),
])
def test_sweep_matches_literal_circuit(system, ground, excited, evolution):
    phi0, phi1 = _states(system, ground, excited)
    excitation = build_excitation_unitary(phi0, phi1)
    t, n_steps = 0.9, 37
    prior = PriorSpec("gaussian", 1.5, 4.0)
    points = sweep(phi0, phi1, system, t, prior, EstimatorConfig(evolution=evolution),
                   SamplerSpec(mode="exact"), n_steps=n_steps)
    for point in points:
        literal = circuit_p0(phi0, excitation, system, t, point.delta_eps,
                             evolution=evolution, n_steps=n_steps)
        assert point.p0 == pytest.approx(literal, abs=1e-12)


_RANDOM_CHAIN = linear_chain(*np.random.default_rng(19).uniform(-2, 2, size=2))


@pytest.mark.parametrize("evolution", ["exact", "trotter"])
@pytest.mark.parametrize("system", [triangle(0.7805, 1.2124, 0.7805), _RANDOM_CHAIN],
                         ids=["triangle", "random_chain"])
def test_long_trotter_block_stays_unitary(system, evolution):
    # A bare matrix power of the one-step block drifts from unitarity by
    # about 1e-15 per step, past 1e-12 at 1200 steps.  The block is shared
    # through the cache, so it must be read-only.
    block = evolution_block(system, 8.0, evolution, 1200)
    assert isinstance(block, np.ndarray)
    with pytest.raises(ValueError):
        block[0, 0] = 0.0
    assert np.max(np.abs(block.conj().T @ block - np.eye(system.dim))) < 1e-13
    if evolution == "trotter":
        literal = circuit_unitary(trotter_circuit(system, TrotterPlan(8.0, 1200)))
    else:
        values, vectors = np.linalg.eigh(build_hamiltonian(system))
        literal = (vectors * np.exp(-8.0j * values)) @ vectors.conj().T
    assert np.max(np.abs(block - literal)) < 1e-10


@pytest.mark.parametrize("system", [
    two_spin_system(-0.8),
    SpinSystem(3, ((2, 3, 1.1), (1, 2, 1.0))),
    SpinSystem(3, ((2, 3, 0.7805), (1, 3, -1.2124), (1, 2, 0.7805))),
    SpinSystem(3, ((1, 3, 2.0), (1, 2, 1.0))),
], ids=["two_spin", "chain_unsorted", "triangle_unsorted", "chain_13_12"])
@pytest.mark.parametrize("t, n_steps", [(0.2, 1), (1.0, 7), (4.2, 600)])
def test_trotter_block_matches_literal_step_circuit(system, t, n_steps):
    # The register block against the gate-by-gate circuit of one step,
    # raised to the step count and projected onto the unitaries alike.
    one_step = circuit_unitary(trotter_circuit(system, TrotterPlan(t / n_steps, 1)))
    w, _, vh = np.linalg.svd(np.linalg.matrix_power(one_step, n_steps))
    block = evolution_block(system, t, "trotter", n_steps)
    assert np.max(np.abs(block - w @ vh)) <= 1e-14


@pytest.mark.parametrize("couplings, sampler_seed", [((1.0, 1.0, 2.0), 17),
                                                     ((1.0, 1.0, 1.0), 1023)])
def test_noisy_run_does_not_restart_onto_far_flat_fits(couplings, sampler_seed):
    # Adopting an almost flat fit whose mean lies far outside the swept
    # window ends these runs at -57.9 and -246701 against gaps 5 and 3.
    result = run_estimation(triangle(*couplings), "Q", "D2",
                            PriorSpec("gaussian", 0.0, 10.0),
                            sampler=SamplerSpec("noisy", 5000, 0.002, sampler_seed))
    assert result.accuracy >= 0.85


def test_check_restart_window_is_open():
    prior = PriorSpec("gaussian", 0.0, 10.0)
    assert check_restart(prior, 7.0, 0.6)
    assert not check_restart(prior, 5.9, 0.6)
    assert check_restart(prior, 6.0, 0.6)  # boundary counts as outside
    assert check_restart(prior, -6.5, 0.6)


def test_next_time_follows_half_cycle_rule():
    config = EstimatorConfig()
    system = linear_chain(1.0, 1.0)
    t, n_steps = next_time(3.92, config, system, previous_t=0.2)
    assert t == pytest.approx(0.4)
    t, n_steps = next_time(4.06, config, system, previous_t=0.2)
    assert t == pytest.approx(0.4)
    assert n_steps == 60
    # Growth is clamped.
    t, _ = next_time(0.01, config, system, previous_t=0.2)
    assert t == pytest.approx(1.0)  # 5 x 0.2
    # Single-coupling systems always use one step.
    t, n_steps = next_time(3.92, config, two_spin_system(1.0), previous_t=0.2)
    assert n_steps == 1


def test_default_steps_rule():
    assert default_steps(linear_chain(1.0, 1.0), 0.2, 150.0) == 30
    assert default_steps(linear_chain(1.0, 1.0), 4.2, 150.0) == 630
    assert default_steps(two_spin_system(1.0), 4.2, 150.0) == 1


def test_explicit_schedule_is_replayed_verbatim():
    schedule = ((0.2, 1), (0.4, 1), (0.8, 1), (2.4, 1))
    config = EstimatorConfig(explicit_schedule=schedule, evolution="exact")
    result = run_estimation(two_spin_system(1.0), "T", "S",
                            PriorSpec("gaussian", 0.0, 10.0), config)
    assert [(row.t, row.n_steps) for row in result.trace] == list(schedule)
    assert result.converged
    assert result.stop_reason == "converged"
    # A schedule that runs out before the threshold is reached says so.
    result = run_estimation(two_spin_system(1.0), "T", "S",
                            PriorSpec("gaussian", 0.0, 10.0),
                            EstimatorConfig(explicit_schedule=schedule[:2],
                                            evolution="exact"))
    assert len(result.trace) == 2
    assert not result.converged
    assert result.stop_reason == "schedule_end"


def test_ideal_run_converges_to_the_gap():
    result = run_estimation(two_spin_system(1.0), "T", "S",
                            PriorSpec("gaussian", 0.0, 10.0))
    assert result.converged
    assert result.final.sigma < 0.4
    assert result.final.mu == pytest.approx(2.0, abs=0.05)
    assert result.exact_gap == pytest.approx(2.0, abs=1e-9)
    assert result.accuracy == pytest.approx(1.0, abs=0.03)
    # Posterior spread shrinks monotonically without restarts.
    sigmas = [row.posterior.sigma for row in result.trace]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    assert all(row.posterior.sigma < row.prior.sigma for row in result.trace)


@pytest.mark.parametrize("mu, sigma", [(float("nan"), 10.0), (float("inf"), 1.0),
                                       (0.0, float("inf")), (0.0, float("nan"))],
                         ids=["nan_mu", "inf_mu", "inf_sigma", "nan_sigma"])
def test_prior_rejects_non_finite_numbers(mu, sigma):
    # Left unchecked, a run ends in fit_failed with mu or sigma non-finite.
    with pytest.raises(ValueError, match="finite"):
        PriorSpec("gaussian", mu, sigma)


def test_uniform_prior_first_update_adopts_the_fit():
    config = EstimatorConfig(evolution="exact")
    result = run_estimation(linear_chain(1.0, 1.1), "Q", "D1",
                            PriorSpec("uniform", 3.15, 1.15), config)
    first = result.trace[0]
    assert first.posterior.mu == pytest.approx(first.fit.mu)
    assert first.posterior.sigma == pytest.approx(first.fit.sigma)
    assert result.converged
    assert result.final.mu == pytest.approx(3.1536, abs=0.05)


def _synthetic_fit_sequence(values):
    """Monkeypatch helper: feed predetermined fit means into the loop."""
    queue = list(values)

    def fake_fit(x, y, fallback_sigma=None):
        mu = queue.pop(0) if queue else float(x[np.argmax(y)])
        return FitResult(mu=mu, sigma=1.0, amplitude=0.5, offset=0.4,
                         converged=True, residual_norm=0.0)

    return fake_fit


def test_restart_keeps_sigma_and_schedule_entry(monkeypatch):
    rng = np.random.default_rng(31)
    for _ in range(25):
        prior_mu = float(rng.uniform(-5, 5))
        prior_sigma = float(rng.uniform(0.5, 8))
        lam = 0.6
        # First fit lands outside the lambda window; the second lands
        # inside the post-restart window centered on the carried mean.
        outside = prior_mu + prior_sigma * lam * rng.choice([-1.3, 1.3])
        inside = outside + prior_sigma * lam * 0.5
        monkeypatch.setattr(engine, "fit_gaussian",
                            _synthetic_fit_sequence([outside, inside]))
        config = EstimatorConfig(evolution="exact", max_iterations=4,
                                 lambda_restart=lam)
        result = run_estimation(two_spin_system(1.0), "T", "S",
                                PriorSpec("gaussian", prior_mu, prior_sigma),
                                config)
        first, second = result.trace[0], result.trace[1]
        assert first.restarted
        assert not second.restarted
        # Restart adopts the fitted mean, keeps sigma, keeps (t, n).
        assert second.prior.mu == pytest.approx(outside)
        assert second.prior.sigma == prior_sigma
        assert (second.t, second.n_steps) == (first.t, first.n_steps)
        # The carried posterior of a restarted row leaves sigma unchanged.
        assert first.posterior.sigma == first.prior.sigma


def test_in_window_fit_does_not_restart(monkeypatch):
    rng = np.random.default_rng(77)
    for _ in range(25):
        prior_mu = float(rng.uniform(-5, 5))
        prior_sigma = float(rng.uniform(0.5, 8))
        inside = prior_mu + prior_sigma * 0.6 * float(rng.uniform(-0.95, 0.95))
        monkeypatch.setattr(engine, "fit_gaussian",
                            _synthetic_fit_sequence([inside, inside]))
        config = EstimatorConfig(evolution="exact", max_iterations=2)
        result = run_estimation(two_spin_system(1.0), "T", "S",
                                PriorSpec("gaussian", prior_mu, prior_sigma),
                                config)
        assert not result.trace[0].restarted
        assert result.trace[0].posterior.sigma < prior_sigma


def test_consecutive_restart_limit_aborts(monkeypatch):
    monkeypatch.setattr(engine, "fit_gaussian",
                        _synthetic_fit_sequence([50.0, 120.0, 260.0, 500.0]))
    config = EstimatorConfig(evolution="exact", max_iterations=10)
    result = run_estimation(two_spin_system(1.0), "T", "S",
                            PriorSpec("gaussian", 0.0, 10.0), config)
    assert not result.converged
    assert result.stop_reason == "restart_limit"
    assert len(result.trace) == config.restart_limit
    assert all(row.restarted for row in result.trace)
    assert all(row.fit_attempts == 1 for row in result.trace)
    # All restart re-runs stayed at the initial (t, n).
    assert {(row.t, row.n_steps) for row in result.trace} == {(0.2, 1)}


def test_failed_fit_aborts_with_diagnostic_trace(monkeypatch):
    calls = []

    def always_fail(x, y, fallback_sigma=None):
        calls.append(tuple(y))
        return FitResult(mu=0.0, sigma=fallback_sigma or 1.0, amplitude=0.0,
                         offset=0.0, converged=False, residual_norm=0.0)

    monkeypatch.setattr(engine, "fit_gaussian", always_fail)
    config = EstimatorConfig(evolution="exact")
    for sampler, fits in ((SamplerSpec(), 1),
                          (SamplerSpec("shots", 500, seed=4), config.fit_retry_limit)):
        calls.clear()
        result = run_estimation(two_spin_system(1.0), "T", "S",
                                PriorSpec("gaussian", 0.0, 10.0), config, sampler)
        assert not result.converged
        assert result.stop_reason == "fit_failed"
        assert len(result.trace) == 1
        assert not result.trace[0].fit.converged
        # An exact sweep is not retried; shot sweeps retry on fresh draws.
        assert len(calls) == fits
        assert len(set(calls)) == fits
        assert result.trace[0].fit_attempts == fits


def test_fit_attempts_count_the_retried_sweeps(monkeypatch):
    # The first sweep of every iteration fails to fit, its retry succeeds.
    real_fit = engine.fit_gaussian
    failed = set()

    def fail_first(x, y, fallback_sigma=None):
        if tuple(x) not in failed:
            failed.add(tuple(x))
            return FitResult(mu=0.0, sigma=1.0, amplitude=0.0, offset=0.0,
                             converged=False, residual_norm=0.0)
        return real_fit(x, y, fallback_sigma=fallback_sigma)

    monkeypatch.setattr(engine, "fit_gaussian", fail_first)
    result = run_estimation(two_spin_system(1.0), "T", "S",
                            PriorSpec("gaussian", 0.0, 10.0),
                            sampler=SamplerSpec("shots", 5000, seed=4))
    assert result.stop_reason == "converged"
    assert [row.fit_attempts for row in result.trace] == [2] * len(result.trace)


def test_convergence_flag_matches_threshold():
    for e_thre in (0.4, 1.0):
        config = EstimatorConfig(e_thre=e_thre, evolution="exact")
        result = run_estimation(two_spin_system(1.0), "T", "S",
                                PriorSpec("gaussian", 0.0, 10.0), config)
        assert result.converged == (result.final.sigma < e_thre)
        assert result.converged
        assert result.stop_reason == "converged"


def test_shot_sampled_run_is_deterministic_per_seed():
    sampler = SamplerSpec(mode="shots", shots=2000, seed=99)
    results = [run_estimation(two_spin_system(1.0), "T", "S",
                              PriorSpec("gaussian", 0.0, 10.0), sampler=sampler)
               for _ in range(2)]
    assert results[0].final == results[1].final
    assert len(results[0].trace) == len(results[1].trace)


# Noisy runs recorded at an earlier commit; see the file's description.
NOISY_REPLAY = json.loads((Path(__file__).parent / "data" / "noisy_replay.json")
                          .read_text())["runs"]
PAPER_RUNS = {
    "two-spin": (two_spin_system(1.0), "T", "S"),
    "linear-chain": (linear_chain(1.0, 1.0), "Q", "D2"),
    "frustrated-triangle": (triangle(1.0, 1.0, 1.0), "Q", "D2"),
    "non-frustrated-d1": (triangle(1.0, 1.0, 2.0), "Q", "D1"),
    "non-frustrated-d2": (triangle(1.0, 1.0, 2.0), "Q", "D2"),
    "asymmetric-chain": (linear_chain(1.0, 1.1), "Q", "D1"),
}


@pytest.mark.parametrize("record", NOISY_REPLAY, ids=[
    f"{r['system']}-p{r['p_depol']}-seed{r['seed']}" for r in NOISY_REPLAY])
def test_noisy_run_repeats_the_recorded_draws(record):
    system, ground, excited = PAPER_RUNS[record["system"]]
    sampler = SamplerSpec("noisy", record["shots"], record["p_depol"], record["seed"])
    result = run_estimation(system, ground, excited, PriorSpec("gaussian", 0.0, 10.0),
                            sampler=sampler)
    iterations = [{"t": row.t, "n_steps": row.n_steps, "fit_attempts": row.fit_attempts,
                   "p0": [point.p0 for point in row.points]} for row in result.trace]
    for k, (got, recorded) in enumerate(zip(iterations, record["iterations"])):
        assert got == recorded, f"iteration {k}"
    assert len(iterations) == len(record["iterations"])
    assert result.final.mu == record["mu"]
    assert result.final.sigma == record["sigma"]
    assert result.stop_reason == record["stop_reason"]


def _clear_every_cache():
    """Empty every lru cache defined in the package's modules."""
    cleared = []
    for module in [m for name, m in sys.modules.items() if name.startswith("qpde.")]:
        for name, value in vars(module).items():
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", None) == module.__name__):
                value.cache_clear()
                cleared.append(name)
    return cleared


@pytest.mark.parametrize("mode", ["noisy", "shots"])
def test_result_does_not_depend_on_cache_state(mode):
    def estimate(system, ground, excited, seed):
        return repr(run_estimation(system, ground, excited,
                                   PriorSpec("gaussian", 0.0, 10.0),
                                   sampler=SamplerSpec(mode, 500, 0.01, seed)))

    cleared = _clear_every_cache()
    assert {"preparation_pair", "assignment", "_noisy_block",
            "evolution_block", "system_eigensystem"} <= set(cleared)
    cold = estimate(triangle(1.0, 1.0, 2.0), "Q", "D2", 5)
    # Other labels, systems and seeds warm every cache, this run's keys too.
    for system, ground, excited in ((triangle(1.0, 1.0, 2.0), "Q", "D1"),
                                    (triangle(1.0, 1.0, 2.0), "Q", "D2"),
                                    (linear_chain(1.0, 1.1), "Q", "D1"),
                                    (two_spin_system(1.0), "T", "S")):
        estimate(system, ground, excited, 9)
    assert estimate(triangle(1.0, 1.0, 2.0), "Q", "D2", 5) == cold


def test_cached_set_up_arrays_are_read_only():
    phi0, excitation = engine.preparation_pair("Q", "D2", 3)
    assert engine.preparation_pair("Q", "D2", 3)[1] is excitation
    rotations = tuple(exchange_rotations(triangle(1.0, 1.0, 2.0), 0.7 / 105))
    block = sampling._noisy_block(3, rotations, 105, 0.002, (1,))
    assert block.shape == (15, 15)
    for array in (phi0, excitation, block):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("labels, message", [
    (("Q", "D3"), "unknown state label"),
    (("Q", "Q"), "not orthogonal"),
    (("T", "S"), "requires 2 spins"),
], ids=["unknown_label", "same_label", "wrong_spin_count"])
def test_failed_set_up_is_not_cached(labels, message):
    engine.preparation_pair.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            engine.preparation_pair(*labels, 3)
    assert engine.preparation_pair.cache_info().currsize == 0


def test_failed_assignment_is_not_cached():
    spin.assignment.cache_clear()
    for label, message in (("D3", "unknown state label"), ("T", "requires 2 spins")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                spin.assignment(triangle(1.0, 1.0, 2.0), label)
    assert spin.assignment.cache_info().currsize == 0


def test_set_up_reaches_spin_through_engine_names_on_misses(monkeypatch):
    # Profilers wrap qpde.engine.named_state and qpde.engine.exact_gap; the
    # cached preparation pair calls named_state by that name whenever it
    # builds, and each run calls exact_gap, whose label assignments are
    # cached in spin.
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine, "named_state", counted(spin.named_state))
    monkeypatch.setattr(engine, "exact_gap", counted(spin.exact_gap))
    _clear_every_cache()
    for seed in (1, 2):
        run_estimation(two_spin_system(1.0), "T", "S", PriorSpec("gaussian", 0.0, 10.0),
                       sampler=SamplerSpec("shots", 500, seed=seed))
    assert calls == ["named_state", "named_state", "exact_gap", "exact_gap"]
    assert spin.assignment.cache_info().misses == 2


def test_noisy_mode_requires_trotter():
    with pytest.raises(ValueError, match="trotter"):
        run_estimation(two_spin_system(1.0), "T", "S",
                       PriorSpec("gaussian", 0.0, 10.0),
                       EstimatorConfig(evolution="exact"),
                       SamplerSpec(mode="noisy"))


@pytest.mark.parametrize("fields", [
    {"grid_points": 21.0}, {"max_iterations": 2.5}, {"fit_retry_limit": 1.5},
    {"restart_limit": True}, {"grid_points": "21"},
    {"explicit_schedule": ((0.2, 2.5), (0.4, 7))}, {"explicit_schedule": ((0.4, "7"),)},
    {"explicit_schedule": ((0.2, True),)},
], ids=["float_grid_points", "fractional_max_iterations", "fractional_fit_retry_limit",
        "bool_restart_limit", "string_grid_points", "fractional_schedule_steps",
        "string_schedule_steps", "bool_schedule_steps"])
def test_estimator_config_rejects_integer_fields_that_are_not_integers(fields):
    # Before, a schedule step count went through int() (2.5 ran 2 steps,
    # True ran 1) and a float count constructed, then raised TypeError mid-run.
    with pytest.raises(ValueError, match="must be an integer"):
        EstimatorConfig(**fields)


def test_estimator_config_takes_numpy_integers_as_ints():
    config = EstimatorConfig(grid_points=np.int64(9), explicit_schedule=((0.2, np.int32(3)),))
    assert type(config.grid_points) is int and config.grid_points == 9
    assert config.explicit_schedule == ((0.2, 3),)
    assert type(config.explicit_schedule[0][1]) is int


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(lambda_restart=1.5)
    with pytest.raises(ValueError):
        EstimatorConfig(e_thre=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(grid_points=3)
    with pytest.raises(ValueError):
        EstimatorConfig(explicit_schedule=((0.0, 5),))
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bad schedule entry"):
            EstimatorConfig(explicit_schedule=((0.2, 1), (t, 3)))
    with pytest.raises(ValueError, match="initial_t"):
        EstimatorConfig(initial_t=0.0)
    # An infinite time would only fail later, when default_steps rounds it.
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="initial_t must be positive"):
            EstimatorConfig(initial_t=value)
        with pytest.raises(ValueError, match="steps_per_unit_time must be positive"):
            EstimatorConfig(steps_per_unit_time=value)
    with pytest.raises(ValueError, match="fit_retry_limit"):
        EstimatorConfig(fit_retry_limit=0)
    for limit in (0, -5):
        with pytest.raises(ValueError, match="restart_limit"):
            EstimatorConfig(restart_limit=limit)
    for steps in (0.0, -5.0):
        with pytest.raises(ValueError, match="steps_per_unit_time"):
            EstimatorConfig(steps_per_unit_time=steps)
    for growth in (0.0, -1.0):
        with pytest.raises(ValueError, match="time_growth_factor"):
            EstimatorConfig(time_growth_factor=growth)
    for iterations in (0, -3):
        with pytest.raises(ValueError, match="max_iterations"):
            EstimatorConfig(max_iterations=iterations)
