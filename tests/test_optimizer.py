"""Device-cost accounting: depth over the dependency DAG and gate tallies."""
import numpy as np
import pytest

from oracles import TrotterPlan, controlled, trotter_circuit
from qpde.cli import bundled_config_names, load_config
from qpde.evolution import exchange_rotations
from qpde.optimizer import cost_report
from qpde.spin import SpinSystem, linear_chain


def _literal_cost(circuit):
    """cost_report of every gate of a circuit, walked once."""
    return cost_report(circuit.n_qubits, [gate.targets for gate in circuit.gates])


def test_cost_report_empty():
    assert cost_report(3, []).gate_count == 0
    assert cost_report(3, []).depth == 0
    assert cost_report(3, []).two_qubit_count == 0


def test_cost_report_counts_unoptimized_chain():
    report = _literal_cost(trotter_circuit(linear_chain(1.0, 1.0), TrotterPlan(0.2, 30)))
    assert report.two_qubit_count == 60
    assert report.gate_count == 60
    assert report.depth == 60  # the two step gates share qubit 1


def test_cost_report_depth_over_dependency_dag():
    assert cost_report(3, [(0, 1), (1, 2), (0, 2)]).depth == 3
    # Disjoint supports run in parallel.
    assert cost_report(4, [(0, 1), (2, 3)]).depth == 1
    # Controls participate in the dependency structure.
    gate3_012 = controlled(3, (0, 1, 2), np.eye(8))
    assert cost_report(4, [(0, 1), gate3_012.targets]).depth == 2


def _random_systems(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(8):
            chosen = rng.permutation(len(pairs))[:rng.integers(len(pairs) + 1)]
            yield SpinSystem(n, tuple(pairs[k] + (float(rng.uniform(-2, 2)),)
                                      for k in chosen))


BUNDLED_SYSTEMS = [load_config(name)["system"] for name in bundled_config_names()]


@pytest.mark.parametrize("n_steps", [1, 7, 600])
def test_repeated_step_cost_matches_literal_circuit(n_steps):
    # The optimizer report counts the pre-collapse circuit from the supports
    # of one step's exchange rotations; the literal circuit has every gate.
    for system in BUNDLED_SYSTEMS + list(_random_systems(n_steps)):
        literal = _literal_cost(trotter_circuit(system, TrotterPlan(2.0, n_steps)))
        supports = [(i - 1, j - 1) for i, j, _ in exchange_rotations(system, 2.0 / n_steps)]
        assert cost_report(system.n_spins, supports, repeats=n_steps) == literal, system


@pytest.mark.parametrize("supports", [[(0, 1), (1, 2)], [(1, 2), (0,), (0, 1), (2,)],
                                      [(0, 1)]])
def test_repeated_cost_walks_until_copies_deepen_evenly(supports):
    # (0, 1), (1, 2) deepens qubit 0 by 1 and qubits 1, 2 by 2 in its first
    # copy and every qubit by 2 from then on; qubit 2 of the last circuit
    # is never touched.
    for repeats in (1, 2, 5):
        literal = cost_report(3, supports * repeats)
        assert cost_report(3, supports, repeats=repeats) == literal

