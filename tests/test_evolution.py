"""Pair exponentials, product-formula circuits, and the exact propagator."""
import numpy as np
import pytest

from oracles import TrotterPlan, circuit_unitary, pair_term_unitary, trotter_circuit
from qpde.evolution import exact_evolution
from qpde.spin import build_hamiltonian, linear_chain, named_state, triangle, two_spin_system


def test_zero_time_is_identity():
    assert np.allclose(pair_term_unitary(1.3, 0.0), np.eye(4), atol=1e-14)
    assert np.allclose(exact_evolution(triangle(1, 1, 1), 0.0), np.eye(8), atol=1e-12)


def test_pair_unitary_sector_phases():
    # exp(-i h dt) with h eigenvalues -J/2 (triplet) and +3J/2 (singlet).
    dt = 0.7
    u = pair_term_unitary(1.0, dt)
    singlet = named_state("S", 2).coefficients.astype(complex)
    triplet = named_state("T", 2).coefficients.astype(complex)
    assert np.allclose(u @ singlet, np.exp(-1.5j * dt) * singlet, atol=1e-12)
    assert np.allclose(u @ triplet, np.exp(0.5j * dt) * triplet, atol=1e-12)


def test_pair_unitary_at_pi_is_global_i():
    u = pair_term_unitary(1.0, np.pi)
    assert np.allclose(u, 1j * np.eye(4), atol=1e-12)


def test_pair_unitary_matches_expm_oracle():
    # Taylor-series exponential as an independent route.
    rng = np.random.default_rng(4)
    for _ in range(10):
        strength, dt = rng.uniform(-2, 2), rng.uniform(0, 3)
        h = build_hamiltonian(two_spin_system(strength))
        expected = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 60):
            term = term @ (-1j * dt * h) / k
            expected = expected + term
        assert np.allclose(pair_term_unitary(strength, dt), expected, atol=1e-12)


def test_single_coupling_one_step_is_exact():
    system = two_spin_system(0.8)
    for t in (0.2, 1.7, 4.2):
        unitary = circuit_unitary(trotter_circuit(system, TrotterPlan(t, 1)))
        assert np.max(np.abs(unitary - exact_evolution(system, t))) <= 1e-12


def test_gate_count_and_ordering():
    system = linear_chain(1.0, 1.0)
    circuit = trotter_circuit(system, TrotterPlan(0.2, 30))
    assert len(circuit.gates) == 60
    # Couplings applied in (i, j) ascending order within each step.
    assert circuit.gates[0].targets == (0, 1)
    assert circuit.gates[1].targets == (1, 2)


def test_plan_validation():
    with pytest.raises(ValueError):
        TrotterPlan(0.2, 0)
    with pytest.raises(ValueError):
        TrotterPlan(-0.1, 5)


def test_trotter_circuit_is_unitary_for_any_step_count():
    system = triangle(1.0, -0.7, 0.4)
    for n_steps in (1, 7, 40):
        u = circuit_unitary(trotter_circuit(system, TrotterPlan(1.1, n_steps)))
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-12


def test_eigenstate_acquires_phase():
    system = triangle(1.0, 1.0, 1.0)
    q = named_state("Q", 3).coefficients.astype(complex)
    t = 0.9
    evolved = exact_evolution(system, t) @ q
    assert np.allclose(evolved, np.exp(1.5j * t) * q, atol=1e-12)


def test_exact_evolution_group_property():
    system = linear_chain(1.0, 1.1)
    u1 = exact_evolution(system, 0.7)
    u2 = exact_evolution(system, 1.6)
    u12 = exact_evolution(system, 2.3)
    assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-10


def test_first_order_error_halves_when_steps_double():
    system = triangle(1.0, 1.0, 1.0)
    t = 0.8
    exact = exact_evolution(system, t)
    errors = []
    for n_steps in (30, 60, 120, 240):
        u = circuit_unitary(trotter_circuit(system, TrotterPlan(t, n_steps)))
        errors.append(np.linalg.norm(u - exact, ord=2))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= coarse / fine <= 2.2
