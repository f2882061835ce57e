"""Acceptance suite: the package's end-to-end guarantees.

Each test prints one PASS line (visible with `pytest -s`); a failure
surfaces as an ordinary pytest failure.  Stated runtime budgets are
asserted where the criterion carries one.
"""
import time

import numpy as np
import pytest

import qpde.engine as engine
from oracles import (Circuit, Gate, TrotterPlan, analytic_p0, build_hamiltonian,
                     circuit_p0, circuit_unitary, exact_evolution, spin_squared,
                     to_spin_eigenbasis, trotter_circuit)
from qpde.engine import (EstimatorConfig, PriorSpec, build_excitation_unitary,
                         run_estimation)
from qpde.evolution import evolution_block
from qpde.fitting import FitResult
from qpde.optimizer import cost_report
from qpde.sampling import SamplerSpec
from qpde.spin import (exact_gap, linear_chain, named_state, spin_eigenbasis,
                       spin_eigenfunction, system_eigensystem, triangle, two_spin_system)

SQRT2, SQRT3, SQRT6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)

BENCHMARKS = [
    # (name, system, ground, excited, gap, tolerance)
    ("two-spin", two_spin_system(1.0), "T", "S", 2.0, 1e-9),
    ("linear-chain", linear_chain(1.0, 1.0), "Q", "D2", 1.0, 1e-9),
    ("frustrated-triangle", triangle(1.0, 1.0, 1.0), "Q", "D2", 3.0, 1e-9),
    ("non-frustrated-d1", triangle(1.0, 1.0, 2.0), "Q", "D1", 3.0, 1e-9),
    ("non-frustrated-d2", triangle(1.0, 1.0, 2.0), "Q", "D2", 5.0, 1e-9),
    ("asymmetric-chain", linear_chain(1.0, 1.1), "Q", "D1", 3.15, 0.005),
]

# Published refinement schedules and final posteriors for the replays.
REPLAYS = [
    ("two-spin", two_spin_system(1.0), "T", "S",
     ((0.2, 1), (0.4, 1), (0.8, 1), (2.4, 1)),
     PriorSpec("gaussian", 0.0, 10.0), 1.74, 0.28),
    ("linear-chain", linear_chain(1.0, 1.0), "Q", "D2",
     ((0.2, 30), (0.4, 60), (1.0, 150), (4.2, 620)),
     PriorSpec("gaussian", 0.0, 10.0), 0.88, 0.32),
    ("frustrated-triangle", triangle(1.0, 1.0, 1.0), "Q", "D2",
     ((0.2, 30), (0.4, 60), (0.8, 120), (0.8, 120), (1.6, 240), (1.6, 240)),
     PriorSpec("gaussian", 0.0, 10.0), 2.64, 0.34),
    ("non-frustrated-d1", triangle(1.0, 1.0, 2.0), "Q", "D1",
     ((0.2, 30), (0.4, 60), (0.6, 90), (0.6, 90), (0.6, 90), (1.6, 240),
      (1.6, 240)),
     PriorSpec("gaussian", 0.0, 10.0), 2.56, 0.40),
    ("non-frustrated-d2", triangle(1.0, 1.0, 2.0), "Q", "D2",
     ((0.2, 30), (0.4, 60), (0.4, 60), (0.6, 90), (0.6, 90), (0.6, 90),
      (1.8, 270), (1.8, 270)),
     PriorSpec("gaussian", 0.0, 10.0), 4.67, 0.31),
    ("asymmetric-chain", linear_chain(1.0, 1.1), "Q", "D1",
     ((1.2, 180), (1.8, 300), (4.2, 620)),
     PriorSpec("uniform", 3.15, 1.15), 3.04, 0.18),
]


def test_criterion_1_exact_oracle_gaps():
    start = time.perf_counter()
    for name, system, ground, excited, expected, tolerance in BENCHMARKS:
        gap = exact_gap(system, ground, excited)
        assert gap == pytest.approx(expected, abs=tolerance), name
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 1: six exact-oracle gaps reproduced "
          f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_circuit_matches_mixture_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(1000):
        if case % 2:
            system = two_spin_system(float(rng.uniform(-2, 2)))
        else:
            system = triangle(*(float(j) for j in rng.uniform(-2, 2, size=3)))
        values, vectors = system_eigensystem(system)
        j, k = rng.choice(values.size, size=2, replace=False)
        phi0 = vectors[:, j]
        phi1 = vectors[:, k]
        t = float(rng.uniform(0, 5))
        delta = float(rng.uniform(-10, 10))
        circuit_value = circuit_p0(phi0, build_excitation_unitary(phi0, phi1), system,
                                   t, delta)
        c = np.zeros(values.size)
        c[j] = 1.0
        d = np.zeros(values.size)
        d[k] = 1.0
        worst = max(worst, abs(circuit_value - analytic_p0(c, d, values, t, delta)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"PASS criterion 2: 1000 randomized circuit-vs-formula cases, "
          f"worst |diff| = {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_3_ideal_mode_convergence():
    start = time.perf_counter()
    for name, system, ground, excited, expected, _ in BENCHMARKS:
        result = run_estimation(system, ground, excited,
                                PriorSpec("gaussian", 0.0, 10.0))
        gap = exact_gap(system, ground, excited)
        assert result.converged, name
        assert len(result.trace) <= 10, name
        assert abs(result.final.mu - gap) <= 0.05, name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 3: ideal-mode convergence on all six systems "
          f"within 10 iterations at |error| <= 0.05 ({elapsed:.1f} s)")


def test_criterion_4_sampled_mode_accuracy_band():
    start = time.perf_counter()
    n_seeds = 20
    for name, system, ground, excited, expected, _ in BENCHMARKS:
        good = 0
        accuracies = []
        for seed in range(n_seeds):
            sampler = SamplerSpec(mode="noisy", shots=5000, p_depol=0.002,
                                  seed=seed)
            result = run_estimation(system, ground, excited,
                                    PriorSpec("gaussian", 0.0, 10.0),
                                    sampler=sampler)
            accuracies.append(result.accuracy)
            if result.converged and result.accuracy >= 0.85:
                good += 1
        assert good >= int(0.8 * n_seeds), (name, good, accuracies)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 4: >= 80% of 5000-shot depolarized runs converge "
          f"at >= 85% accuracy for every system ({elapsed:.0f} s)")


def test_noisy_seed_survey_failure_share():
    # Judged over a fixed range of sampler seeds rather than one pinned
    # seed: at most one of the 180 depolarized runs may fall below the
    # paper's 85 % accuracy band.
    start = time.perf_counter()
    failures = []
    for name, system, ground, excited, expected, _ in BENCHMARKS:
        for seed in range(1000, 1030):
            sampler = SamplerSpec(mode="noisy", shots=5000, p_depol=0.002,
                                  seed=seed)
            result = run_estimation(system, ground, excited,
                                    PriorSpec("gaussian", 0.0, 10.0),
                                    sampler=sampler)
            if result.accuracy < 0.85:
                failures.append((name, seed, result.accuracy))
    elapsed = time.perf_counter() - start
    assert len(failures) <= 1, failures
    assert elapsed < 60.0
    print(f"PASS noisy seed survey: {len(failures)} of 180 depolarized runs "
          f"below 85% accuracy ({elapsed:.1f} s)")


def test_criterion_5_published_schedule_replay():
    start = time.perf_counter()
    for name, system, ground, excited, schedule, prior, mu_ref, sigma_ref in REPLAYS:
        config = EstimatorConfig(explicit_schedule=schedule)
        result = run_estimation(system, ground, excited, prior, config)
        assert result.converged, name
        assert result.final.sigma < 0.4, name
        assert abs(result.final.mu - mu_ref) <= 2 * sigma_ref, (name, result.final)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: published refinement schedules converge below "
          f"the 0.4 threshold inside every reference window ({elapsed:.1f} s)")


def test_criterion_6_trotter_error_scaling():
    start = time.perf_counter()
    system = triangle(1.0, 1.0, 1.0)
    t = 0.8
    exact = exact_evolution(system, t)
    errors = []
    for n_steps in (30, 60, 120, 240):
        unitary = circuit_unitary(trotter_circuit(system, TrotterPlan(t, n_steps)))
        errors.append(np.linalg.norm(unitary - exact, ord=2))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    for ratio in ratios:
        assert 1.6 <= ratio <= 2.4
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: operator-norm error halves per step doubling, "
          f"ratios {[f'{r:.2f}' for r in ratios]} ({elapsed:.1f} s)")


def test_criterion_7_constant_cost_compression():
    start = time.perf_counter()
    system = linear_chain(1.0, 1.0)
    reports = []
    for t, n_steps in ((0.2, 30), (4.2, 620)):
        circuit = trotter_circuit(system, TrotterPlan(t, n_steps))
        block = evolution_block(system, t, "trotter", n_steps)
        collapsed = Circuit(system.n_spins,
                            [Gate.register(range(system.n_spins), block)])
        reports.append(cost_report(system.n_spins, [g.targets for g in collapsed.gates]))
        exact = exact_evolution(system, t)
        dist_collapsed = np.linalg.norm(circuit_unitary(collapsed) - exact, ord=2)
        dist_trotter = np.linalg.norm(circuit_unitary(circuit) - exact, ord=2)
        assert dist_collapsed <= dist_trotter + 1e-10
    assert reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: post-compression cost identical for (0.2, 30) "
          f"and (4.2, 620), {reports[0]} ({elapsed:.1f} s)")


# The complete eigenfunction catalog for two and three spins.
EIGENFUNCTION_CATALOG = [
    ((2, 1.0, 1.0, 1), {0b00: 1.0}),
    ((2, 1.0, 0.0, 1), {0b01: 1 / SQRT2, 0b10: 1 / SQRT2}),
    ((2, 1.0, -1.0, 1), {0b11: 1.0}),
    ((2, 0.0, 0.0, 1), {0b01: 1 / SQRT2, 0b10: -1 / SQRT2}),
    ((3, 1.5, 1.5, 1), {0b000: 1.0}),
    ((3, 1.5, 0.5, 1), {0b001: 1 / SQRT3, 0b010: 1 / SQRT3, 0b100: 1 / SQRT3}),
    ((3, 1.5, -0.5, 1), {0b110: 1 / SQRT3, 0b101: 1 / SQRT3, 0b011: 1 / SQRT3}),
    ((3, 1.5, -1.5, 1), {0b111: 1.0}),
    ((3, 0.5, 0.5, 1), {0b001: 2 / SQRT6, 0b010: -1 / SQRT6, 0b100: -1 / SQRT6}),
    ((3, 0.5, -0.5, 1), {0b110: 2 / SQRT6, 0b011: -1 / SQRT6, 0b101: -1 / SQRT6}),
    ((3, 0.5, 0.5, 2), {0b010: 1 / SQRT2, 0b100: -1 / SQRT2}),
    ((3, 0.5, -0.5, 2), {0b011: 1 / SQRT2, 0b101: -1 / SQRT2}),
]


def test_criterion_8_spin_algebra_suite():
    start = time.perf_counter()
    # Eigenfunction catalog, coefficient-exact.
    for (n, s, ms, d), entries in EIGENFUNCTION_CATALOG:
        expected = np.zeros(2 ** n)
        for index, value in entries.items():
            expected[index] = value
        state = spin_eigenfunction(n, s, ms, d)
        assert np.max(np.abs(state.coefficients - expected)) <= 1e-12

    # Simultaneous eigenvectors and orthonormality.
    for n in (2, 3):
        s2 = spin_squared(n)
        basis = spin_eigenbasis(n)
        matrix = np.column_stack([b.coefficients for b in basis])
        assert np.max(np.abs(matrix.T @ matrix - np.eye(2 ** n))) <= 1e-12
        for state in basis:
            vec = state.coefficients
            target = state.s * (state.s + 1)
            assert np.max(np.abs(s2 @ vec - target * vec)) <= 1e-10

    # Commutation and eigenbasis closed forms over 1000 random triples.
    rng = np.random.default_rng(88)
    s2 = spin_squared(3)
    basis = spin_eigenbasis(3)
    for _ in range(1000):
        j12, j23, j13 = (float(j) for j in rng.uniform(-2, 2, size=3))
        h = build_hamiltonian(triangle(j12, j23, j13))
        assert np.max(np.abs(h @ s2 - s2 @ h)) <= 1e-10
        block = to_spin_eigenbasis(h, basis)
        b_qq = -(j12 + j23 + j13) / 2
        b_d1d1 = (-j12 + 2 * j23 + 2 * j13) / 2
        b_d2d2 = 1.5 * j12
        b_d1d2 = (SQRT3 / 2) * (j13 - j23)
        expected = np.zeros((8, 8))
        expected[:4, :4] = b_qq * np.eye(4)
        expected[4, 4] = expected[5, 5] = b_d1d1
        expected[6, 6] = expected[7, 7] = b_d2d2
        expected[4, 6] = expected[6, 4] = b_d1d2
        # Lowered-ms members couple with the opposite sign in the catalog's
        # eigenfunction sign convention.
        expected[5, 7] = expected[7, 5] = -b_d1d2
        assert np.max(np.abs(block - expected)) <= 1e-12
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 8: eigenfunction catalog exact, commutation and "
          f"eigenbasis closed forms hold over 1000 random triples "
          f"({elapsed:.1f} s)")


def test_criterion_9_restart_semantics(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    lam = 0.6
    for _ in range(30):
        prior_mu = float(rng.uniform(-5, 5))
        prior_sigma = float(rng.uniform(0.5, 8.0))
        offset = float(rng.uniform(1.05, 2.0)) * rng.choice([-1.0, 1.0])
        outside = prior_mu + lam * prior_sigma * offset
        inside = outside + lam * prior_sigma * float(rng.uniform(-0.5, 0.5))

        fits = [outside, inside]

        def fake_fit(x, y, fallback_sigma=None, _queue=fits):
            mu = _queue.pop(0) if _queue else float(x[np.argmax(y)])
            return FitResult(mu=mu, sigma=1.0, amplitude=0.5, offset=0.4,
                             converged=True, residual_norm=0.0)

        monkeypatch.setattr(engine, "fit_gaussian", fake_fit)
        config = EstimatorConfig(max_iterations=4, lambda_restart=lam,
                                 evolution="exact")
        result = run_estimation(two_spin_system(1.0), "T", "S",
                                PriorSpec("gaussian", prior_mu, prior_sigma),
                                config)
        first, second = result.trace[0], result.trace[1]
        assert first.restarted
        assert second.prior.mu == pytest.approx(outside)
        assert second.prior.sigma == prior_sigma        # sigma preserved
        assert (second.t, second.n_steps) == (first.t, first.n_steps)
        assert not second.restarted
    monkeypatch.undo()
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 9: out-of-window fits restart with preserved "
          f"sigma at unchanged (t, n) over randomized priors ({elapsed:.1f} s)")
