"""Spin systems, their exact spectra, and the labeled energy gaps.

Walks the six benchmark configurations: takes each Heisenberg
Hamiltonian's exact spectrum from its blocks on the total-spin sectors,
and reports the gap between the eigenstates best matched by the named
preparation states.
"""
import numpy as np

from qpde import (assignment, exact_gap, linear_chain, named_state, system_eigensystem,
                  triangle, two_spin_system)
from qpde.spin import exchange_operator, sector_hamiltonian

CONFIGS = [
    ("two-spin chain        ", two_spin_system(1.0), "T", "S"),
    ("linear chain          ", linear_chain(1.0, 1.0), "Q", "D2"),
    ("frustrated triangle   ", triangle(1.0, 1.0, 1.0), "Q", "D2"),
    ("non-frustrated tri D1 ", triangle(1.0, 1.0, 2.0), "Q", "D1"),
    ("non-frustrated tri D2 ", triangle(1.0, 1.0, 2.0), "Q", "D2"),
    ("asymmetric chain      ", linear_chain(1.0, 1.1), "Q", "D1"),
]

print("Exact spectra and labeled gaps")
print("=" * 72)
for name, system, ground, excited in CONFIGS:
    eigenvalues = system_eigensystem(system)[0]
    levels = ", ".join(f"{v:+.4f}" for v in np.unique(np.round(eigenvalues, 10)))
    print(f"{name} levels: {levels}")
    for label in (ground, excited):
        idx, energy, overlap = assignment(system, label)
        print(f"    |{label}> -> eigenstate {idx} at E = {energy:+.4f} "
              f"(overlap^2 = {overlap:.4f})")
    print(f"    gap E[{excited}] - E[{ground}] = {exact_gap(system, ground, excited):.6f}")
print()

print("The quartet/triplet structure comes from the total-spin symmetry:")
print("H has one block per (s, ms) sector of the spin eigenbasis.")
system = linear_chain(1.0, 1.0)
sectors, blocks = sector_hamiltonian(system)
for size, block in zip(sectors.sizes, blocks):
    entries = f"{block:+.3f}" if size == 1 else str(np.round(block, 3).tolist())
    print(f"  {size}x{size} sector block: {entries}")
# S^2 = 3n/4 + sum_{i<j} (P_ij - 1/2), from the exchange operators.
s2 = 0.75 * 3 * np.eye(8)
for i, j in ((1, 2), (1, 3), (2, 3)):
    s2 += exchange_operator(3, i, j) - 0.5 * np.eye(8)
for label in ("Q", "D1", "D2"):
    state = named_state(label, 3)
    vec = state.coefficients
    val = vec @ s2 @ vec
    print(f"  <{label}| S^2 |{label}> = {val:.3f}  (s = {state.s} "
          f"gives s(s+1) = {state.s * (state.s + 1):.3f})")
