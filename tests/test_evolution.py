"""Pair exponentials, product-formula circuits, the exact propagator, and
the closed-form Trotter block against the literal circuit."""
import math

import numpy as np
import pytest

from oracles import (TrotterPlan, build_hamiltonian, circuit_unitary, exact_evolution,
                     pair_term_unitary, random_system, trotter_circuit)
from qpde.engine import EstimatorConfig, PriorSpec, sweep
from qpde.evolution import evolution_block
from qpde.sampling import SamplerSpec
from qpde.spin import SpinSystem, linear_chain, named_state, triangle, two_spin_system


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


def test_exact_block_matches_dense_eigh_oracle():
    # The sector-spectrum propagator against exp(-iHt) from numpy's eigh of
    # the dense Hamiltonian, on one, two and three spins with zero,
    # negative and positive couplings, and the degenerate triangles.
    rng = np.random.default_rng(61)
    systems = [SpinSystem(1, ()), triangle(1.0, 1.0, 1.0), triangle(-0.7, -0.7, -0.7)]
    systems += [random_system(rng, 1 + k % 3) for k in range(300)]
    for system in systems:
        t = float(rng.uniform(0, 10))
        block = evolution_block(system, t, "exact", None)
        assert np.max(np.abs(block - exact_evolution(system, t))) <= 1e-13
        assert np.max(np.abs(block.conj().T @ block - np.eye(system.dim))) <= 1e-13


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


_TROTTER_SYSTEMS = {
    "one_spin": SpinSystem(1, ()),
    "two_spin": two_spin_system(-0.8),
    "chain": linear_chain(1.3, -0.6),
    "triangle": triangle(0.7805, 1.2124, -0.4),
    "zero_couplings": SpinSystem(3, ((1, 2, 0.0), (1, 3, 0.0), (2, 3, 0.0))),
    "zero_and_negative": SpinSystem(3, ((1, 2, 0.0), (2, 3, -1.7))),
    "single_13": SpinSystem(3, ((1, 3, 1.1),)),
    "unsorted": SpinSystem(3, ((2, 3, 0.9), (1, 3, -1.2), (1, 2, 0.5))),
}


def _assert_block_is_literal_circuit(system, t, n_steps):
    block = evolution_block(system, t, "trotter", n_steps)
    literal = circuit_unitary(trotter_circuit(system, TrotterPlan(t, n_steps)))
    assert np.max(np.abs(block - literal)) <= 1e-12
    assert np.max(np.abs(block.conj().T @ block - np.eye(system.dim))) <= 1e-14


@pytest.mark.parametrize("system", _TROTTER_SYSTEMS.values(), ids=_TROTTER_SYSTEMS.keys())
@pytest.mark.parametrize("t, n_steps", [(0.2, 1), (1.0, 7), (4.2, 1200)])
def test_closed_form_trotter_block_is_the_step_circuit(system, t, n_steps):
    _assert_block_is_literal_circuit(system, t, n_steps)


@pytest.mark.parametrize("system, angle", [(triangle(1.0, 1.0, 1.0), math.pi),
                                           (linear_chain(-1.0, 1.0), math.pi),
                                           (linear_chain(1.0, 1.0), math.pi / 2)],
                         ids=["triangle_pi", "chain_pi", "chain_half_pi"])
@pytest.mark.parametrize("n_steps", [1, 3, 6, 1200])
def test_closed_form_at_degenerate_angles(system, angle, n_steps):
    # At J dt = pi every factor is -I up to rounding, so the doublet step is
    # +-I and sin g is rounding; at pi/2 on both chain couplings the doublet
    # step is a rotation by g = pi/3, whose 3rd and 6th powers are -I and I.
    _assert_block_is_literal_circuit(system, angle * n_steps, n_steps)


def test_trotter_block_rejects_more_than_three_spins():
    system = SpinSystem(4, ((1, 2, 1.0), (3, 4, 0.5)))
    with pytest.raises(ValueError, match="at most 3 spins"):
        evolution_block(system, 0.5, "trotter", 10)
    with pytest.raises(ValueError, match="at most 3 spins"):
        evolution_block(system, 0.5, "exact", None)


@pytest.mark.parametrize("n_steps", [-3, 0, 2.5, 3.0, None])
def test_trotter_block_rejects_step_counts_that_are_not_positive_integers(n_steps):
    # Before, -3 returned an 8x8 matrix, 0 raised ZeroDivisionError and
    # 2.5 a TypeError.
    with pytest.raises(ValueError, match="positive integer n_steps"):
        evolution_block(triangle(1.0, 1.0, 2.0), 1.0, "trotter", n_steps)


def test_sweep_rejects_a_negative_step_count():
    phi0 = named_state("Q", 3).coefficients
    phi1 = named_state("D2", 3).coefficients
    with pytest.raises(ValueError, match="positive integer n_steps"):
        sweep(phi0, phi1, triangle(1.0, 1.0, 2.0), 1.0, PriorSpec("gaussian", 3.0, 2.0),
              EstimatorConfig(), SamplerSpec(mode="exact"), n_steps=-3)
