"""Spin systems, their exact spectra, and the labeled energy gaps.

Walks the six benchmark configurations: builds each Heisenberg
Hamiltonian, diagonalizes it exactly, and reports the gap between the
eigenstates best matched by the named preparation states.
"""
import numpy as np

from qpde import (assignment, build_hamiltonian, exact_gap, linear_chain, named_state,
                  spin_squared, system_eigensystem, triangle, two_spin_system)

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
system = linear_chain(1.0, 1.0)
h = build_hamiltonian(system)
s2 = spin_squared(3)
print(f"  || [H, S^2] ||_max = {np.max(np.abs(h @ s2 - s2 @ h)):.2e}")
for label in ("Q", "D1", "D2"):
    state = named_state(label, 3)
    vec = state.coefficients
    val = vec @ s2 @ vec
    print(f"  <{label}| S^2 |{label}> = {val:.3f}  (s = {state.s} "
          f"gives s(s+1) = {state.s * (state.s + 1):.3f})")
