"""Device-cost accounting of circuits, from their gates' qubit supports.

`cost_report` gives a circuit's depth over its qubit-dependency DAG and
its gate tallies.  It needs only the ordered list of qubit sets the gates
act on, not the gates: the CLI's optimizer report counts the literal
n_steps Trotter circuit from the (i, j) supports of one step's exchange
rotations, and the one register block that `evolution.evolution_block`
collapses it to as one support spanning the register, whose cost does not
depend on the step count.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostReport:
    """Depth over the qubit-dependency DAG plus raw gate tallies."""

    depth: int
    two_qubit_count: int
    gate_count: int


def cost_report(n_qubits: int, supports: list[tuple[int, ...]],
                repeats: int = 1) -> CostReport:
    """Cost of `repeats` back-to-back copies of a circuit on `n_qubits` whose
    gates act, in order, on the qubit tuples `supports`.  Once a copy
    deepens every qubit it touches by the same amount, each later copy does
    too, so the walk stops there."""
    touched = {q for support in supports for q in support}
    frontier = [0] * n_qubits
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
