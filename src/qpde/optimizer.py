"""Circuit compression and cost accounting.

The pair-exchange structure of Heisenberg evolution means a product of
arbitrarily many step gates on a small register collapses to a fixed-size
block, so the compiled cost of an evolution segment is independent of the
Trotter step count.  The collapse preserves the whole-register unitary.
"""
from __future__ import annotations

from dataclasses import dataclass

from .statevector import Circuit, Gate, circuit_unitary

COLLAPSE_MAX_QUBITS = 3


@dataclass(frozen=True)
class CostReport:
    """Depth over the qubit-dependency DAG plus raw gate tallies."""

    depth: int
    two_qubit_count: int
    gate_count: int


def cost_report(circuit: Circuit) -> CostReport:
    frontier = [0] * circuit.n_qubits
    depth = 0
    two_qubit = 0
    for gate in circuit.gates:
        support = gate.support
        layer = 1 + max(frontier[q] for q in support)
        for q in support:
            frontier[q] = layer
        depth = max(depth, layer)
        if len(support) == 2:
            two_qubit += 1
    return CostReport(depth, two_qubit, len(circuit.gates))


def collapse_register_block(circuit: Circuit,
                            max_qubits: int = COLLAPSE_MAX_QUBITS) -> Circuit:
    """Replace the whole circuit by one register-wide unitary block.

    Intended for evolution segments on a small register; the result's
    cost no longer depends on how many step gates went in.
    """
    if circuit.n_qubits > max_qubits:
        raise ValueError(
            f"refusing to collapse a {circuit.n_qubits}-qubit register "
            f"(limit {max_qubits})")
    block = circuit_unitary(circuit)
    gate = Gate.register(tuple(range(circuit.n_qubits)), block)
    return Circuit(circuit.n_qubits, [gate])
