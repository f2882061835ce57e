"""Device-cost accounting: depth over the dependency DAG and gate tallies."""
import numpy as np
import pytest

from oracles import controlled
from qpde.cli import bundled_config_names, load_config
from qpde.evolution import TrotterPlan, trotter_circuit
from qpde.optimizer import cost_report
from qpde.spin import SpinSystem, linear_chain
from qpde.statevector import Circuit, Gate


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
    gate3_012 = controlled(3, (0, 1, 2), np.eye(8))
    assert cost_report(Circuit(4, [gate01, gate3_012])).depth == 2


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
    # The optimizer report counts the pre-collapse circuit from one step.
    for system in BUNDLED_SYSTEMS + list(_random_systems(n_steps)):
        literal = cost_report(trotter_circuit(system, TrotterPlan(2.0, n_steps)))
        step = trotter_circuit(system, TrotterPlan(2.0 / n_steps, 1))
        assert cost_report(step, repeats=n_steps) == literal, system


@pytest.mark.parametrize("supports", [[(0, 1), (1, 2)], [(1, 2), (0,), (0, 1), (2,)],
                                      [(0, 1)]])
def test_repeated_cost_walks_until_copies_deepen_evenly(supports):
    # (0, 1), (1, 2) deepens qubit 0 by 1 and qubits 1, 2 by 2 in its first
    # copy and every qubit by 2 from then on; qubit 2 of the last circuit
    # is never touched.
    gates = [Gate.two(*s, np.eye(4)) if len(s) == 2 else Gate.register(s, np.eye(2))
             for s in supports]
    for repeats in (1, 2, 5):
        literal = cost_report(Circuit(3, gates * repeats))
        assert cost_report(Circuit(3, gates), repeats=repeats) == literal
