"""Finite shots and depolarizing noise.

Shot sampling turns each sweep point into a 5000-shot binomial estimate;
a sweep draws all its points at once from one random stream, derived from
the sampler seed, the iteration and the retry attempt.  The noisy mode inserts random two-qubit Paulis after the entangling
evolution gates, one stochastic trajectory per shot; the shots then
average to the depolarizing channel, which the package computes exactly
as the mean branch coherence E[z] and samples one binomial per point
from.  Deeper Trotterized evolutions see more insertions, which lowers
the fringe contrast |E[z]| the way gate errors do on hardware, while the
peak position stays unbiased; the refinement loop still converges, just
with a little scatter in the final estimate.
"""
import numpy as np

from qpde import PriorSpec, SamplerSpec, linear_chain, run_estimation, triangle

CONFIGS = [
    ("linear chain       ", linear_chain(1.0, 1.0), "Q", "D2", 1.0),
    ("frustrated triangle", triangle(1.0, 1.0, 1.0), "Q", "D2", 3.0),
]
SEEDS = range(5)

for mode, p_depol in (("shots", 0.0), ("noisy", 0.002)):
    print(f"sampler mode {mode!r}" + (f", p_depol={p_depol}" if mode == "noisy" else ""))
    for name, system, ground, excited, gap in CONFIGS:
        estimates = []
        for seed in SEEDS:
            sampler = SamplerSpec(mode=mode, shots=5000, p_depol=p_depol, seed=seed)
            result = run_estimation(system, ground, excited,
                                    PriorSpec("gaussian", 0.0, 10.0),
                                    sampler=sampler)
            estimates.append((result.final.mu, result.accuracy, result.converged))
        mus = np.array([e[0] for e in estimates])
        accs = np.array([e[1] for e in estimates])
        n_conv = sum(e[2] for e in estimates)
        print(f"  {name} gap {gap}: mu over {len(SEEDS)} seeds = "
              f"{mus.mean():.4f} +- {mus.std():.4f}, "
              f"accuracy min/mean = {accs.min():.4f}/{accs.mean():.4f}, "
              f"converged {n_conv}/{len(SEEDS)}")
    print()

print("Contrast loss grows with circuit depth (exact mean coherence, p_depol=0.002):")
from qpde.engine import build_excitation_unitary
from qpde.evolution import exchange_rotations
from qpde.sampling import depolarized_overlap
from qpde.spin import named_state

system = linear_chain(1.0, 1.0)
phi0 = named_state("Q", 3).coefficients
phi1 = named_state("D2", 3).coefficients
excitation = build_excitation_unitary(phi0, phi1)
for t, n_steps in ((0.2, 30), (1.0, 150), (4.2, 620)):
    step = exchange_rotations(system, t / n_steps)
    z = depolarized_overlap(phi0, excitation, step, n_steps, p_depol=0.002)
    print(f"  t={t:3.1f}, n={n_steps:3d} ({2 * n_steps:4d} two-qubit gates): "
          f"mean coherence |E[z]| = {abs(z):.3f}")
