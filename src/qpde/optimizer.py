"""Device-cost accounting of circuits.

`cost_report` gives a circuit's depth over its qubit-dependency DAG and
its gate tallies.  The CLI's optimizer report compares the literal
n_steps Trotter circuit with the one register block that
`evolution.evolution_block` collapses it to, whose cost does not depend
on the step count.
"""
from __future__ import annotations

from dataclasses import dataclass

from .statevector import Circuit


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
    supports = [gate.targets for gate in circuit.gates]
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
