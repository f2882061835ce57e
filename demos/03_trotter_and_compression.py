"""First-order product-formula error and constant-cost compression.

Doubling the step count halves the operator-norm error, and the one
register block `evolution_block` collapses an evolution segment to has a
compiled cost independent of the step count, which is what makes long
evolutions cheap.
"""
import numpy as np

from qpde import cost_report, evolution_block, exchange_rotations, linear_chain, triangle
from qpde.spin import exchange_operator


def trotter_unitary(system, t, n_steps):
    """n_steps repetitions of one product-formula step: each exchange
    rotation e^{-ia/2} (cos a I + i sin a P_ij) embedded on the register,
    in list order, and the step raised to the n_steps power."""
    step = np.eye(system.dim, dtype=complex)
    for i, j, angle in exchange_rotations(system, t / n_steps):
        exchange = exchange_operator(system.n_spins, i, j)
        step = np.exp(-0.5j * angle) * (np.cos(angle) * np.eye(system.dim)
                                        + 1j * np.sin(angle) * exchange) @ step
    return np.linalg.matrix_power(step, n_steps)


system = triangle(1.0, 1.0, 1.0)
t = 0.8
exact = evolution_block(system, t, "exact", None)
print(f"Frustrated triangle, t = {t}: product-formula error vs step count")
previous = None
for n_steps in (30, 60, 120, 240):
    error = np.linalg.norm(trotter_unitary(system, t, n_steps) - exact, ord=2)
    ratio = "" if previous is None else f"  (ratio {previous / error:.3f})"
    print(f"  n = {n_steps:3d}: ||U_n - U_exact|| = {error:.3e}{ratio}")
    previous = error
print()

print("Linear chain: compression makes the evolution cost step-independent")
system = linear_chain(1.0, 1.0)
for t, n_steps in ((0.2, 30), (1.0, 150), (4.2, 620)):
    # The cost of a circuit is a walk over its gates' qubit supports: the
    # step's exchange rotations n_steps times, or the block's whole register.
    step = [(i - 1, j - 1) for i, j, _ in exchange_rotations(system, t / n_steps)]
    pre = cost_report(system.n_spins, step, repeats=n_steps)
    block = evolution_block(system, t, "trotter", n_steps)
    post = cost_report(system.n_spins, [tuple(range(system.n_spins))])
    drift = np.max(np.abs(block - trotter_unitary(system, t, n_steps)))
    print(f"  t = {t:3.1f}, n = {n_steps:3d}: depth {pre.depth:4d} -> {post.depth}, "
          f"gates {pre.gate_count:4d} -> {post.gate_count}, "
          f"collapse drift {drift:.1e}")
