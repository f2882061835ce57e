"""Compression passes preserve the unitary; compiled cost is step-free."""
import numpy as np
import pytest

from qpde.evolution import TrotterPlan, exact_evolution, trotter_circuit
from qpde.optimizer import collapse_register_block, cost_report
from qpde.spin import linear_chain
from qpde.statevector import Circuit, Gate, circuit_unitary


def test_collapse_identity_circuit():
    collapsed = collapse_register_block(Circuit(3, [Gate.single(0, np.eye(2))]))
    assert len(collapsed.gates) == 1
    assert np.allclose(collapsed.gates[0].matrix, np.eye(8))


def test_collapse_rejects_wide_registers():
    with pytest.raises(ValueError, match="collapse"):
        collapse_register_block(Circuit(4, []))


def test_collapse_cost_is_step_count_free():
    system = linear_chain(1.0, 1.0)
    reports = []
    for t, n_steps in ((0.2, 30), (4.2, 620)):
        collapsed = collapse_register_block(
            trotter_circuit(system, TrotterPlan(t, n_steps)))
        reports.append(cost_report(collapsed))
    assert reports[0] == reports[1]
    assert reports[0].gate_count == 1


def test_collapsed_unitary_within_trotter_distance():
    system = linear_chain(1.0, 1.0)
    for t, n_steps in ((0.2, 30), (4.2, 620)):
        circuit = trotter_circuit(system, TrotterPlan(t, n_steps))
        collapsed = collapse_register_block(circuit)
        exact = exact_evolution(system, t)
        dist_collapsed = np.linalg.norm(circuit_unitary(collapsed) - exact, ord=2)
        dist_trotter = np.linalg.norm(circuit_unitary(circuit) - exact, ord=2)
        assert dist_collapsed <= dist_trotter + 1e-10


def test_cost_report_empty():
    assert cost_report(Circuit(3, [])).gate_count == 0
    assert cost_report(Circuit(3, [])).depth == 0
    assert cost_report(Circuit(3, [])).two_qubit_count == 0


def test_cost_report_counts_unoptimized_chain():
    circuit = trotter_circuit(linear_chain(1.0, 1.0), TrotterPlan(0.2, 30))
    report = cost_report(circuit)
    assert report.two_qubit_count == 60
    assert report.gate_count == 60
    assert report.depth == 60  # the two step gates share qubit 1


def test_cost_report_depth_over_dependency_dag():
    gate01 = Gate.two(0, 1, np.eye(4))
    gate12 = Gate.two(1, 2, np.eye(4))
    gate02 = Gate.two(0, 2, np.eye(4))
    assert cost_report(Circuit(3, [gate01, gate12, gate02])).depth == 3
    # Disjoint supports run in parallel.
    gate23 = Gate.two(2, 3, np.eye(4))
    assert cost_report(Circuit(4, [gate01, gate23])).depth == 1
    # Controls participate in the dependency structure.
    controlled = Gate.controlled(3, (0, 1, 2), np.eye(8))
    assert cost_report(Circuit(4, [gate01, controlled])).depth == 2
