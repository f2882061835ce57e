"""Exact and Trotterized time evolution under Heisenberg Hamiltonians.

With S_i . S_j = P_ij / 2 - 1/4, where the exchange operator P_ij swaps
spins i and j, one coupling term -2J (S_i . S_j) is J/2 - J P_ij, so its
exponential is an exchange rotation in closed form:

    exp(-i h dt) = e^{-iJ dt/2} (cos(J dt) I + i sin(J dt) P_ij).

A first-order product formula splits exp(-iHt) into n_steps repetitions
of these pair factors, applied in a fixed (i, j) order so runs are
reproducible (the first-order error depends on term order).  Each pair
factor is exact, so every step is unitary, and for a single-coupling
system one step is already the exact evolution.  `exchange_rotations`
lists a step's factors as (i, j, angle) in that order: the noise channel
takes them as they are, `trotter_step_unitary` multiplies them into a
register matrix and the device-cost report counts their (i, j) supports.
The exact propagator comes from the cached spectrum in `spin`.

However many steps it holds, an evolution segment on the register is one
fixed-size read-only matrix, built and cached only by `evolution_block`:
the exact propagator, or the polar factor of the one-step block raised to
the n_steps power.  The interferometer uses it, and so does the literal
interferometer circuit of the test oracles.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spin import SpinSystem, exchange_operator, system_eigensystem


def _exchange_rotation(angle: float, exchange: np.ndarray) -> np.ndarray:
    return (np.exp(-0.5j * angle)
            * (np.cos(angle) * np.eye(len(exchange)) + 1j * np.sin(angle) * exchange))


def exchange_rotations(system: SpinSystem, dt: float) -> list[tuple[int, int, float]]:
    """One product-formula step as its exchange rotations (i, j, J dt), in
    (i, j) ascending order; zero couplings stay in the list."""
    return [(i, j, strength * dt) for i, j, strength in sorted(system.couplings)]


def trotter_step_unitary(system: SpinSystem, dt: float) -> np.ndarray:
    """Whole-register unitary of one product-formula step: each exchange
    rotation embedded on the register, in list order."""
    step = np.eye(system.dim, dtype=complex)
    for i, j, angle in exchange_rotations(system, dt):
        step = _exchange_rotation(angle, exchange_operator(system.n_spins, i, j)) @ step
    return step


def exact_evolution(system: SpinSystem, t: float) -> np.ndarray:
    """Whole-register unitary exp(-iHt) from exact diagonalization."""
    values, vectors = system_eigensystem(system)
    phases = np.exp(-1j * values * t)
    return (vectors * phases) @ vectors.conj().T


@lru_cache(maxsize=4096)
def evolution_block(system: SpinSystem, t: float, evolution: str,
                    n_steps: int | None) -> np.ndarray:
    """Read-only register matrix of exp(-iHt), exact or as n_steps Trotter
    steps; the cache hands every caller the same array."""
    if evolution == "exact":
        block = exact_evolution(system, t)
    elif evolution == "trotter":
        if n_steps is None:
            raise ValueError("trotter evolution requires n_steps")
        # The power multiplies the step's rounding error by n_steps; its
        # polar factor is the nearest unitary.
        one_step = trotter_step_unitary(system, t / n_steps)
        w, _, vh = np.linalg.svd(np.linalg.matrix_power(one_step, n_steps))
        block = w @ vh
    else:
        raise ValueError(f"evolution mode {evolution!r} not recognized")
    block.setflags(write=False)
    return block
