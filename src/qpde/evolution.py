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
takes them as they are, the Trotter block is built from them and the
device-cost report counts their (i, j) supports.

However many steps it holds, an evolution segment on the register is one
fixed-size read-only matrix, built and cached only by `evolution_block`
from the (s, ms) sectors of `spin.sector_hamiltonian`: the exact
propagator V e^{-iEt} V^T from the cached spectrum, or the n_steps-th
power of the product-formula step in closed form.  Every P_ij commutes
with total spin, so on a one-dimensional sector that power is exactly
e^{-iht}, and on a doublet plane the step is, up to a global phase, an
SU(2) matrix W whose power is

    W^n = cos(n g) I + (sin(n g) / sin g) (W - cos g I),   cos g = tr W / 2.

Up to three spins no sector is larger, so that is the scope of both
modes.  The interferometer uses the block, and so does the literal
interferometer circuit of the test oracles.
"""
from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache

import numpy as np

from .spin import SpinSystem, sector_hamiltonian, system_eigensystem


def exchange_rotations(system: SpinSystem, dt: float) -> list[tuple[int, int, float]]:
    """One product-formula step as its exchange rotations (i, j, J dt), in
    (i, j) ascending order; zero couplings stay in the list."""
    return [(i, j, strength * dt) for i, j, strength in sorted(system.couplings)]


def _sector_power(factors, sector: int, n_steps: int) -> list[complex]:
    """Entries, row-major, of the n_steps-th power of one doublet plane's
    step without its global phase: the step's factors cos a + i sin a P_ij,
    given as (cos a, sin a, P_ij's sector blocks), multiplied on Python
    complex numbers, later rotations on the left."""
    w00, w01, w10, w11 = 1 + 0j, 0j, 0j, 1 + 0j
    for c, s, blocks in factors:
        (p00, p01), (p10, p11) = blocks[sector]
        f00, f01, f10, f11 = complex(c, s * p00), 1j * s * p01, 1j * s * p10, complex(c, s * p11)
        w00, w01, w10, w11 = (f00 * w00 + f01 * w10, f00 * w01 + f01 * w11,
                              f10 * w00 + f11 * w10, f10 * w01 + f11 * w11)
    # W = w I + i (x X + y Y + z Z) with real Pauli components; the
    # components, not arccos, give sin g at every angle.
    w = 0.5 * (w00 + w11).real
    x, y, z = 0.5 * (w01 + w10).imag, 0.5 * (w01 - w10).real, 0.5 * (w00 - w11).imag
    sin_g = math.hypot(x, y, z)
    angle = n_steps * math.atan2(sin_g, w)
    cos_n = math.cos(angle)
    if sin_g == 0.0:
        return [complex(cos_n), 0j, 0j, complex(cos_n)]
    ratio = math.sin(angle) / sin_g
    return [complex(cos_n, ratio * z), complex(ratio * y, ratio * x),
            complex(-ratio * y, ratio * x), complex(cos_n, -ratio * z)]


def _trotter_block(system: SpinSystem, t: float, n_steps: int) -> np.ndarray:
    """n_steps product-formula steps as one register matrix, assembled in
    closed form on the total-spin sectors."""
    sectors, hamiltonian = sector_hamiltonian(system)
    rotations = exchange_rotations(system, t / n_steps)
    factors = [(math.cos(angle), math.sin(angle), sectors.blocks[i, j])
               for i, j, angle in rotations]
    phase = cmath.exp(-0.5j * n_steps * sum(angle for _, _, angle in rotations))
    entries = []
    for sector, (size, h) in enumerate(zip(sectors.sizes, hamiltonian)):
        entries += ([cmath.exp(-1j * h * t)] if size == 1 else
                    [phase * entry for entry in _sector_power(factors, sector, n_steps)])
    units = sectors.units
    return (np.array(entries) @ units.reshape(len(units), -1)).reshape(system.dim, system.dim)


@lru_cache(maxsize=4096)
def evolution_block(system: SpinSystem, t: float, evolution: str,
                    n_steps: int | None) -> np.ndarray:
    """Read-only register matrix of exp(-iHt), exact or as n_steps Trotter
    steps (a positive integer); at most three spins in either mode.  The
    cache hands every caller the same array."""
    if evolution == "exact":
        values, vectors = system_eigensystem(system)
        block = (vectors * np.exp(-1j * values * t)) @ vectors.T
    elif evolution == "trotter":
        if not (isinstance(n_steps, numbers.Integral) and n_steps >= 1):
            raise ValueError(f"trotter evolution requires a positive integer n_steps, "
                             f"got {n_steps!r}")
        block = _trotter_block(system, t, n_steps)
    else:
        raise ValueError(f"evolution mode {evolution!r} not recognized")
    block.setflags(write=False)
    return block
