"""The ancilla interference fringe and its analytic cross-check.

Sweeps the trial phase delta_eps for a fixed evolution time and prints the
ancilla |0> probability next to the closed-form mixture value

    p0 = [1 + sum_jk |c_j|^2 |d_k|^2 cos((E_k - E_j - delta_eps) t)] / 2,

where c and d are the preparation states' overlaps with the energy
eigenstates.  For the asymmetric chain the preparation state is not an
exact eigenstate, so the signal carries two cosine components weighted by
those overlaps.
"""
import numpy as np

from qpde import (EstimatorConfig, PriorSpec, SamplerSpec, linear_chain, named_state,
                  sweep, system_eigensystem, two_spin_system)


def ideal_sweep(phi0, phi1, system, t, centre, half_width, points):
    """Noiseless sweep of `points` trial phases across centre +- half_width."""
    return sweep(phi0, phi1, system, t, PriorSpec("gaussian", centre, half_width),
                 EstimatorConfig(evolution="exact", grid_points=points),
                 SamplerSpec(mode="exact"))


def mixture_p0(c, d, energies, t, delta):
    gaps = energies[None, :] - energies[:, None]
    weights = np.outer(np.abs(c) ** 2, np.abs(d) ** 2)
    return 0.5 * (1.0 + np.sum(weights * np.cos((gaps - delta) * t)))


print("Two-spin system, t = 0.2: fringe peaks at the gap (2.0)")
system = two_spin_system(1.0)
phi0 = named_state("T", 2).coefficients
phi1 = named_state("S", 2).coefficients
values, vectors = system_eigensystem(system)
c = vectors.conj().T @ phi0
d = vectors.conj().T @ phi1
print(f"{'delta_eps':>10} {'sweep p0':>12} {'formula p0':>12}")
for point in ideal_sweep(phi0, phi1, system, 0.2, 2.0, 4.0, 9):
    formula = mixture_p0(c, d, values, 0.2, point.delta_eps)
    print(f"{point.delta_eps:10.2f} {point.p0:12.6f} {formula:12.6f}")
print()

print("Asymmetric chain (J23 = 1.1): the doublet preparation overlaps two")
print("eigenstates, so the fringe is a two-component mixture")
system = linear_chain(1.0, 1.1)
phi1 = named_state("D1", 3).coefficients
values, vectors = system_eigensystem(system)
weights = np.abs(vectors.conj().T @ phi1) ** 2
for idx in np.argsort(weights)[::-1][:3]:
    print(f"  eigenstate {idx} at E = {values[idx]:+.4f}: weight {weights[idx]:.5f}")
phi0 = named_state("Q", 3).coefficients
peak = max(ideal_sweep(phi0, phi1, system, 1.2, 3.25, 1.25, 251), key=lambda p: p.p0)
print(f"  fringe argmax near delta_eps = {peak.delta_eps:.3f} (exact gap 3.1536)")
