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


def cost_report(circuit: Circuit, repeats: int = 1) -> CostReport:
    """Cost of `repeats` back-to-back copies of the circuit, walked on the
    gates' qubit supports.  Once a copy deepens every qubit it touches by
    the same amount, each later copy does too, so the walk stops there."""
    supports = [gate.support for gate in circuit.gates]
    touched = {q for support in supports for q in support}
    frontier = [0] * circuit.n_qubits
    skipped_depth = 0
    for copy in range(repeats):
        before = list(frontier)
        for support in supports:
            layer = 1 + max(map(frontier.__getitem__, support))
            for q in support:
                frontier[q] = layer
        gains = {frontier[q] - before[q] for q in touched}
        if len(gains) == 1:
            skipped_depth = gains.pop() * (repeats - copy - 1)
            break
    two_qubit = sum(len(support) == 2 for support in supports)
    return CostReport(max(frontier, default=0) + skipped_depth, repeats * two_qubit,
                      repeats * len(supports))


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
