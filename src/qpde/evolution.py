"""Exact and Trotterized time evolution under Heisenberg Hamiltonians.

With S_i . S_j = SWAP_ij / 2 - 1/4, one coupling term -2J (S_i . S_j) is
J/2 - J SWAP_ij, so its exponential is a SWAP rotation in closed form:

    exp(-i h dt) = e^{-iJ dt/2} (cos(J dt) I + i sin(J dt) SWAP).

A first-order product formula splits exp(-iHt) into n_steps repetitions
of these pair gates, applied in a fixed (i, j) order so runs are
reproducible (the first-order error depends on term order).  Each pair
factor is exact, so the circuit is unitary for any step count, and for a
single-coupling system one step is already the exact evolution.  The
exact propagator comes from the cached spectrum in `spin`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import SpinSystem, system_eigensystem
from .statevector import Circuit, Gate

#: Two-qubit SWAP in the (|00>, |01>, |10>, |11>) basis.
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


@dataclass(frozen=True)
class TrotterPlan:
    """Evolution time and step count; term order is (i, j) ascending."""

    t: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.t < 0:
            raise ValueError("evolution time must be non-negative")


def pair_term_unitary(strength: float, dt: float) -> np.ndarray:
    """exp(-i h dt) for one coupling term h = -2J (S_i . S_j)."""
    angle = strength * dt
    return np.exp(-0.5j * angle) * (np.cos(angle) * np.eye(4) + 1j * np.sin(angle) * SWAP)


def trotter_circuit(system: SpinSystem, plan: TrotterPlan) -> Circuit:
    """First-order product-formula circuit on the spin register."""
    dt = plan.t / plan.n_steps
    ordered = sorted(system.couplings)
    step_gates = [Gate.two(i - 1, j - 1, pair_term_unitary(strength, dt))
                  for i, j, strength in ordered]
    circuit = Circuit(system.n_spins)
    for _ in range(plan.n_steps):
        for gate in step_gates:
            circuit.append(gate)
    return circuit


def exact_evolution(system: SpinSystem, t: float) -> np.ndarray:
    """Whole-register unitary exp(-iHt) from exact diagonalization."""
    values, vectors = system_eigensystem(system)
    phases = np.exp(-1j * values * t)
    return (vectors * phases) @ vectors.conj().T
