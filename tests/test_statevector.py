"""The oracles' statevectors and gates, and the interpreter that applies them."""
import numpy as np
import pytest

from oracles import (HADAMARD, PAULI_Z, Circuit, Gate, Statevector, ancilla_p0, apply_gate,
                     basis_state, circuit_unitary, controlled, from_amplitudes, run_circuit,
                     tensor)
from qpde.spin import named_state


def random_unitary(dim, rng):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_identity_gate_is_noop():
    state = from_amplitudes(np.ones(4) / 2)
    out = apply_gate(state, Gate.register((0,), np.eye(2)))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_hadamard_on_zero():
    state = basis_state(1, 0)
    out = apply_gate(state, Gate.register((0,), HADAMARD))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_z_on_first_spin_maps_triplet_to_singlet():
    triplet = from_amplitudes(named_state("T", 2).coefficients)
    singlet = from_amplitudes(named_state("S", 2).coefficients)
    out = apply_gate(triplet, Gate.register((0,), PAULI_Z))
    assert np.allclose(out.amplitudes, singlet.amplitudes, atol=1e-15)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of |00> must produce |10> (index 2), not |01>.
    state = basis_state(2, 0)
    x = np.array([[0, 1], [1, 0]])
    out = apply_gate(state, Gate.register((0,), x))
    assert np.argmax(np.abs(out.amplitudes)) == 2


def test_two_qubit_gate_ordered_targets():
    # A controlled-X with control=first listed target, applied to |10>.
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    state = basis_state(2, 0b10)
    out = apply_gate(state, Gate.two(0, 1, cx))
    assert np.argmax(np.abs(out.amplitudes)) == 0b11
    # Reversed target order swaps the roles.
    out = apply_gate(state, Gate.two(1, 0, cx))
    assert np.argmax(np.abs(out.amplitudes)) == 0b10


def test_inner_product_properties():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = from_amplitudes(raw / np.linalg.norm(raw))
    assert np.vdot(psi.amplitudes, psi.amplitudes) == pytest.approx(1.0)
    t = from_amplitudes(named_state("T", 2).coefficients)
    s = from_amplitudes(named_state("S", 2).coefficients)
    assert np.vdot(t.amplitudes, s.amplitudes) == pytest.approx(0.0, abs=1e-15)
    d1 = from_amplitudes(named_state("D1", 3).coefficients)
    d2 = from_amplitudes(named_state("D2", 3).coefficients)
    assert np.vdot(d1.amplitudes, d2.amplitudes) == pytest.approx(0.0, abs=1e-15)


def test_ancilla_p0_cases():
    # ancilla |0> tensor anything -> 1.0
    register = from_amplitudes(named_state("T", 2).coefficients)
    state = tensor(register, basis_state(1, 0))
    assert ancilla_p0(state, 2) == pytest.approx(1.0)
    # ancilla (|0>+|1>)/sqrt(2) -> 0.5
    plus = from_amplitudes([1 / np.sqrt(2), 1 / np.sqrt(2)])
    state = tensor(register, plus)
    assert ancilla_p0(state, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ancilla_p0(state, 5)


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        state = basis_state(n, int(rng.integers(2 ** n)))
        for _ in range(12):
            k = int(rng.integers(1, min(n, 2) + 1))
            targets = tuple(rng.choice(n, size=k, replace=False).tolist())
            gate = (Gate.register((targets[0],), random_unitary(2, rng)) if k == 1
                    else Gate.two(targets[0], targets[1], random_unitary(4, rng)))
            state = apply_gate(state, gate)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-10


def test_controlled_gate_matches_uncontrolled_on_one_branch():
    rng = np.random.default_rng(12)
    u = random_unitary(4, rng)
    register = from_amplitudes(named_state("T", 2).coefficients)
    gate = controlled(2, (0, 1), u)
    # ancilla |0>: identity on the register
    state0 = tensor(register, basis_state(1, 0))
    out0 = apply_gate(state0, gate)
    assert np.allclose(out0.amplitudes, state0.amplitudes)
    # ancilla |1>: same as acting with u directly
    state1 = tensor(register, basis_state(1, 1))
    out1 = apply_gate(state1, gate)
    expected = tensor(from_amplitudes(u @ register.amplitudes), basis_state(1, 1))
    assert np.allclose(out1.amplitudes, expected.amplitudes, atol=1e-12)


def test_controlled_gate_with_control_not_last():
    rng = np.random.default_rng(13)
    u = random_unitary(2, rng)
    gate = controlled(0, (1,), u)
    # control qubit 0 in |1>: u acts on qubit 1
    state = basis_state(2, 0b10)
    out = apply_gate(state, gate)
    assert np.allclose(out.amplitudes[2:], u[:, 0], atol=1e-12)


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError, match="unitary"):
        Gate.register((0,), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_gate_dimension_checked():
    with pytest.raises(ValueError):
        Gate.two(0, 1, np.eye(2))


def test_statevector_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        Statevector(np.array([1.0, 1.0], dtype=complex), 1)


def test_circuit_rejects_out_of_range_targets():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, [Gate.register((3,), np.eye(2))])


def test_circuit_unitary_composes_in_order():
    rng = np.random.default_rng(2)
    u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
    circuit = Circuit(1, [Gate.register((0,), u1), Gate.register((0,), u2)])
    assert np.allclose(circuit_unitary(circuit), u2 @ u1, atol=1e-12)


def test_run_circuit_matches_unitary():
    rng = np.random.default_rng(9)
    circuit = Circuit(3, [
        Gate.register((1,), random_unitary(2, rng)),
        Gate.two(0, 2, random_unitary(4, rng)),
        controlled(1, (0, 2), random_unitary(4, rng)),
        Gate.register((0, 1, 2), random_unitary(8, rng)),
    ])
    state = basis_state(3, 5)
    out = run_circuit(state, circuit)
    assert np.allclose(out.amplitudes,
                       circuit_unitary(circuit) @ state.amplitudes, atol=1e-11)
