"""Shot sampling and stochastic depolarizing noise.

Noise model: after every two-qubit gate, with probability p_depol a
uniformly random non-identity two-qubit Pauli is inserted on that gate's
pair.  Each shot is one such stochastic trajectory followed by a single
ancilla measurement, which emulates how gate errors on a real device
degrade the interference contrast while leaving the peak position
unbiased on average.  Only genuine two-qubit gates carry noise; compact
multi-qubit blocks and single-qubit rotations are treated as clean.

Every interferometer run reads one fringe: with the register branches
chi_b = U_evo |phi_b> and their overlap z = <chi_0| U_swap^dag |chi_1>,
the ancilla |0> probability is p0 = (1 + Re(e^{i delta_eps t} z)) / 2,
computed only by `fringe_p0`.  The engine feeds it the clean overlap of a
(t, n_steps) for a whole grid of trial phases; `EvolutionTrajectorySampler`
feeds it one overlap per noisy trajectory, each tracked in the frame
before the evolution through precomputed prefix products.
`noisy_trajectory_p0` is the literal, gate-by-gate trajectory average for
an arbitrary circuit, the reference the fast path is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevector import (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Circuit, Gate,
                          Statevector, ancilla_p0, apply_gate, circuit_unitary)

#: The 15 non-identity two-qubit Paulis, in a fixed order.
TWO_QUBIT_PAULIS = tuple(
    np.kron(a, b)
    for idx, (a, b) in enumerate(
        (p, q) for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
        for q in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z))
    if idx != 0)


@dataclass(frozen=True)
class SamplerSpec:
    """How sweep probabilities are turned into data.

    mode "exact" returns ideal probabilities, "shots" adds binomial
    sampling, "noisy" adds depolarizing trajectories plus one measurement
    per shot.  All randomness derives from `seed`.
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


def _random_pauli_gate(pair: tuple[int, int], rng: np.random.Generator) -> Gate:
    return Gate.two(pair[0], pair[1], TWO_QUBIT_PAULIS[rng.integers(15)])


def noisy_trajectory_p0(circuit: Circuit, p_depol: float, rng: np.random.Generator,
                        shots: int, ancilla_index: int,
                        initial_state: Statevector | None = None) -> float:
    """Average ancilla |0> probability over stochastic Pauli trajectories.

    With p_depol = 0 every trajectory is the noiseless circuit and the
    exact probability is returned.
    """
    if not 0.0 <= p_depol <= 1.0:
        raise ValueError("p_depol must lie in [0, 1]")
    if initial_state is None:
        initial_state = Statevector.basis_state(circuit.n_qubits, 0)
    n_trajectories = 1 if p_depol == 0 else shots  # noiseless trajectories are identical
    total = 0.0
    for _ in range(n_trajectories):
        state = initial_state
        for gate in circuit.gates:
            state = apply_gate(state, gate)
            if len(gate.support) == 2 and p_depol > 0 and rng.random() < p_depol:
                state = apply_gate(state, _random_pauli_gate(gate.support, rng))
        total += ancilla_p0(state, ancilla_index)
    return total / n_trajectories


def _distinct_sorted_positions(rng: np.random.Generator, n_gates: int,
                               m: int, rows: int) -> np.ndarray:
    """(rows, m) arrays of distinct gate indices, each row sorted.

    Rejection sampling is cheap while collisions are rare (m << n_gates,
    the p_depol << 1 regime); dense draws fall back to random-key sorting.
    """
    if m * m >= n_gates:
        keys = rng.random((rows, n_gates))
        pos = np.argpartition(keys, m - 1, axis=1)[:, :m]
        pos.sort(axis=1)
        return pos
    pos = rng.integers(0, n_gates, size=(rows, m))
    pos.sort(axis=1)
    while True:
        bad = np.any(pos[:, 1:] == pos[:, :-1], axis=1) if m > 1 else np.zeros(rows, bool)
        if not bad.any():
            return pos
        redraw = rng.integers(0, n_gates, size=(int(bad.sum()), m))
        redraw.sort(axis=1)
        pos[bad] = redraw


class EvolutionTrajectorySampler:
    """Batched trajectory sampling of the interference probability.

    Both interferometer branches see the same register operations, so a
    trajectory is evolved as an (dim, 2) pair of columns; the resulting
    branch overlap z gives p0 through `fringe_p0`, and a single ancilla
    measurement is drawn per shot.
    """

    def __init__(self, branch0: np.ndarray, branch1: np.ndarray,
                 excitation: np.ndarray, evolution_gates: list[Gate],
                 n_qubits: int, p_depol: float):
        self.n_gates = len(evolution_gates)
        self.p_depol = float(p_depol)
        dim = 2 ** n_qubits
        psi = np.column_stack([branch0, branch1]).astype(complex)
        excitation_dag = np.asarray(excitation, dtype=complex).conj().T

        embedded = {}
        self.prefixes = np.empty((self.n_gates + 1, dim, dim), dtype=complex)
        self.prefixes[0] = np.eye(dim)
        for g, gate in enumerate(evolution_gates):
            if gate.kind != "two":
                raise ValueError("trajectory sampler expects two-qubit evolution gates")
            key = (gate.targets, gate.matrix.tobytes())
            if key not in embedded:
                embedded[key] = circuit_unitary(Circuit(n_qubits, [gate]))
            self.prefixes[g + 1] = embedded[key] @ self.prefixes[g]

        pairs = sorted({gate.targets for gate in evolution_gates})
        self.gate_pair = np.array([pairs.index(gate.targets) for gate in evolution_gates],
                                  dtype=int)
        # An embedded Pauli is monomial: amplitude i of its image is
        # amplitude pauli_rows[i] times pauli_phases[i].
        ops = np.array([[circuit_unitary(Circuit(n_qubits, [Gate.two(*pair, p)]))
                         for p in TWO_QUBIT_PAULIS] for pair in pairs]).reshape(-1, 15, dim, dim)
        self.pauli_rows = np.argmax(np.abs(ops), axis=-1)
        self.pauli_phases = np.take_along_axis(ops, self.pauli_rows[..., None], -1)[..., 0]

        # In the frame before the evolution, a Pauli sigma after gate k - 1
        # acts as P_k^dag sigma P_k, and a trajectory that ends there in the
        # branch pair u has z = <u_0| M |u_1> with M = P_n^dag E^dag P_n.
        # The pairs P_k psi met by a first insertion are precomputed.
        final = self.prefixes[-1]
        self.overlap = final.conj().T @ excitation_dag @ final
        self.frames = self.prefixes @ psi
        chi = final @ psi
        self.z_clean = complex(np.vdot(chi[:, 0], excitation_dag @ chi[:, 1]))

    def branch_overlaps(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Per-shot branch overlap z after stochastic Pauli insertions."""
        z = np.full(shots, self.z_clean, dtype=complex)
        if self.p_depol == 0.0 or self.n_gates == 0:
            return z
        counts = rng.binomial(self.n_gates, self.p_depol, size=shots)
        for m in np.unique(counts):
            if m == 0:
                continue
            rows = np.nonzero(counts == m)[0]
            pos = _distinct_sorted_positions(rng, self.n_gates, int(m), rows.size)
            paulis = rng.integers(0, 15, size=(rows.size, int(m)))
            # Row offsets into the flattened batch, for the Pauli permutations.
            offsets = np.arange(rows.size)[:, None] * self.frames.shape[1]
            state = self.frames[pos[:, 0] + 1]
            for j in range(int(m)):
                prefix = self.prefixes[pos[:, j] + 1]
                if j:
                    state = np.matmul(prefix, state)
                pair = self.gate_pair[pos[:, j]]
                state = (np.take(state.reshape(-1, 2), self.pauli_rows[pair, paulis[:, j]]
                                 + offsets, axis=0)
                         * self.pauli_phases[pair, paulis[:, j]][:, :, None])
                # Back to the initial frame: P_k^dag state = (state^dag P_k)^dag.
                state = np.matmul(state.conj().transpose(0, 2, 1),
                                  prefix).conj().transpose(0, 2, 1)
            v = state[:, :, 1] @ self.overlap.T
            z[rows] = np.einsum("bi,bi->b", state[:, :, 0].conj(), v)
        return z

    def sample_p0(self, phase: float, shots: int, rng: np.random.Generator) -> float:
        """One measurement per trajectory, averaged over `shots` shots."""
        z = self.branch_overlaps(shots, rng)
        outcomes = rng.random(shots) < fringe_p0(z, phase)
        return float(np.mean(outcomes))
