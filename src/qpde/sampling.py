"""Shot sampling and the depolarizing noise channel.

Every interferometer run reads one fringe: with the register branches
chi_b = U_evo |phi_b> and their overlap z = <chi_0| U_swap^dag |chi_1>,
the ancilla |0> probability is p0 = (1 + Re(e^{i delta_eps t} z)) / 2,
computed only by `fringe_p0`.

Noise model: after every two-qubit gate, with probability p_depol a
uniformly random non-identity two-qubit Pauli is inserted on that gate's
pair.  Only genuine two-qubit gates carry noise; compact multi-qubit
blocks and single-qubit rotations are treated as clean.  Each shot is one
such trajectory followed by a single ancilla measurement, so a sweep
point's count is exactly Binomial(shots, fringe_p0(E[z], phase)): the
trajectories enter only through the mean overlap E[z].  Both branches
see the same register operations, so z is linear in the branch coherence
X = U_swap |phi_0><phi_0| and E[z] = tr(U_swap^dag Phi(X)) for the
depolarizing channel Phi of the evolution.  `depolarized_overlap`
computes it exactly from one Trotter step's superoperator, written as a
real Pauli transfer matrix, raised to the step count.  The literal,
gate-by-gate trajectory average that the channel is checked against is
a test oracle (`tests/oracles.py`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevector import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Circuit, apply_matrix


@dataclass(frozen=True)
class SamplerSpec:
    """How sweep probabilities are turned into data.

    mode "exact" returns ideal probabilities, "shots" draws one binomial
    count of `shots` measurements per sweep point, and "noisy" draws it
    from the depolarized fringe, each shot being one noise trajectory and
    one measurement.  All randomness derives from `seed`.
    """

    mode: str = "exact"
    shots: int = 5000
    p_depol: float = 0.002
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "shots", "noisy"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if self.shots < 1:
            raise ValueError("shot count must be at least 1")
        if not 0.0 <= self.p_depol <= 1.0:
            raise ValueError("p_depol must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a (seed, indices...) coordinate.

    Streams depend only on their coordinates, so results are identical no
    matter in which order sweep points are evaluated.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def fringe_p0(z, phase):
    """Ancilla |0> probability (1 + Re(e^{i phase} z)) / 2 from a branch
    overlap z at trial phase delta_eps * t; broadcasts over arrays of
    either."""
    return np.clip(0.5 * (1.0 + np.real(np.exp(1j * phase) * z)), 0.0, 1.0)


def sample_p0(true_p: float, shots: int, rng: np.random.Generator) -> float:
    """Binomial frequency estimate k/shots of a probability."""
    if not 0.0 <= true_p <= 1.0:
        raise ValueError(f"probability {true_p!r} outside [0, 1]")
    return float(rng.binomial(shots, true_p)) / shots


@lru_cache(maxsize=4)
def _pauli_basis(n_qubits: int) -> np.ndarray:
    """The 4^n n-qubit Paulis over sqrt(2^n), an orthonormal operator basis.

    Index digits are base 4 per qubit, qubit 0 most significant, so the
    Pauli digit of qubit q sits on bits (2q, 2q + 1) of a 2n-bit index.
    """
    basis = [np.eye(1)]
    for _ in range(n_qubits):
        basis = [np.kron(b, p) for b in basis for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)]
    basis = np.array(basis) / np.sqrt(2 ** n_qubits)
    basis.setflags(write=False)
    return basis


#: The 15 non-identity two-qubit Paulis, in the basis order.
TWO_QUBIT_PAULIS = tuple(2 * _pauli_basis(2)[1:])


def _pauli_transfer(unitary: np.ndarray) -> np.ndarray:
    """Real matrix of X -> U X U^dag in the two-qubit Pauli basis."""
    basis = _pauli_basis(2)
    return np.einsum("aij,bji->ab", basis, unitary @ basis @ unitary.conj().T).real


def depolarized_overlap(phi0: np.ndarray, excitation: np.ndarray, step: Circuit,
                        n_steps: int, p_depol: float) -> complex:
    """Mean branch overlap E[z] of `n_steps` noisy repetitions of `step`.

    The channel acts on the branch coherence X = E |phi0><phi0|, written
    in the Pauli basis, where it is real: each gate's transfer matrix is
    followed by the depolarizing insertion on its pair, which keeps a
    Pauli acting there with weight (1 - p) - p / 15 and leaves the others
    unchanged.  The step's transfer matrix raised to `n_steps` carries X
    to the end of the evolution, where E[z] = tr(E^dag X).  With
    p_depol = 0 this is the clean overlap.
    """
    n = step.n_qubits
    basis = _pauli_basis(n)
    decay = np.full(16, 1.0 - 16.0 * p_depol / 15.0)
    decay[0] = 1.0
    transfer = np.eye(4 ** n)
    for gate in step.gates:
        if gate.kind != "two":
            raise ValueError("the noise channel expects two-qubit step gates")
        digits = tuple(bit for q in gate.targets for bit in (2 * q, 2 * q + 1))
        transfer = apply_matrix(transfer, decay[:, None] * _pauli_transfer(gate.matrix),
                                digits, 2 * n)
    coherence = np.einsum("i,aij,j->a", phi0.conj(), basis, excitation @ phi0)
    # Real and imaginary parts apart, so every product stays real: complex
    # products of this size go to a multithreaded BLAS kernel that runs
    # hundreds of times slower when the other cores are busy.
    final = np.linalg.matrix_power(transfer, n_steps) @ np.column_stack(
        [coherence.real, coherence.imag])
    readout = np.einsum("aij,ji->a", basis, excitation)
    return complex(np.vdot(readout, final[:, 0] + 1j * final[:, 1]))
