"""Literal references the package's fast paths are checked against.

None of this runs in an estimation.  A `Statevector` is a normalized
amplitude vector and a `Gate` a unitary on an ordered tuple of target
qubits; each checks its input once, when it is built, so every literal
comparison that wraps the package's evolution block in a `Gate` also
checks that block's unitarity to 1e-12.  `pair_term_unitary` is the
two-qubit exchange rotation in closed form.  A `Circuit` is an ordered
gate list on a fixed-width register, and `trotter_circuit` is the literal
first-order product formula: one two-qubit exchange gate per coupling and
step, the gates whose supports the package's device-cost report counts.
`qpde_circuit` is the interferometer gate by gate: Hadamard on the
ancilla, controlled excitation swap, the register evolution block,
controlled inverse swap, trial phase, Hadamard.
`run_circuit` and `circuit_unitary` apply such a circuit one gate at a
time through the qubit-axis kernel `apply_matrix`, `ancilla_p0` reads the
ancilla, `analytic_p0` is the closed-form mixture formula and
`noisy_trajectory_p0` averages stochastic Pauli trajectories of a circuit,
the literal form of the depolarizing channel.  `pauli_transfer_overlap` is
that channel as real Pauli transfer matrices on the whole operator space,
a second form of the package's charge-sector channel.
Single-qubit gates are one-target register gates, and a controlled
register unitary is one full-width register gate with its control as the
last target.  Qubit and ancilla conventions are those of the `qpde.spin`
module docstring.
`gaussian_model` is the curve that `qpde.fitting.fit_gaussian` fits.
`build_hamiltonian`, `spin_squared` and `spin_z` are the dense 2^n x 2^n
operators, and `exact_evolution` is exp(-iHt) from numpy's `eigh` of the
dense Hamiltonian: the references for the package's total-spin sector
frame, at any register size.  `random_system` draws the spin systems
they are compared on.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from qpde.evolution import evolution_block
from qpde.spin import SpinEigenfunction, SpinSystem, exchange_operator

# Single-qubit Paulis.
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PROJECT_0 = np.diag([1.0, 0.0]).astype(complex)
_PROJECT_1 = np.diag([0.0, 1.0]).astype(complex)

#: Two-qubit SWAP in the (|00>, |01>, |10>, |11>) basis.
SWAP = exchange_operator(2, 1, 2)

NORM_ATOL = 1e-12
UNITARY_ATOL = 1e-12


def _as_complex_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"gate matrix must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Statevector:
    """Normalized complex amplitudes over the 2**n_qubits basis states."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 2 ** self.n_qubits:
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match "
                f"{self.n_qubits} qubits")
        norm = np.sum(np.abs(amps) ** 2)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class Gate:
    """A unitary acting on an explicit ordered set of target qubits.

    kind is "two" (a 4x4 unitary on an ordered qubit pair) or "register"
    (acts on all listed targets as one block).
    """

    kind: str
    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > UNITARY_ATOL:
            raise ValueError("gate matrix is not unitary within 1e-12")
        if m.shape[0] != 2 ** len(self.targets):
            raise ValueError(
                f"{m.shape[0]}x{m.shape[0]} matrix does not act on "
                f"{len(self.targets)} qubits")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits in {self.targets}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))

    @classmethod
    def two(cls, qubit_a: int, qubit_b: int, matrix) -> "Gate":
        """4x4 unitary on the ordered pair (qubit_a, qubit_b)."""
        return cls("two", _as_complex_matrix(matrix), (qubit_a, qubit_b))

    @classmethod
    def register(cls, targets, matrix) -> "Gate":
        return cls("register", _as_complex_matrix(matrix), tuple(targets))


def pair_term_unitary(strength: float, dt: float) -> np.ndarray:
    """exp(-i h dt) for one coupling term h = -2J (S_i . S_j):
    e^{-iJ dt/2} (cos(J dt) I + i sin(J dt) SWAP)."""
    angle = strength * dt
    return np.exp(-0.5j * angle) * (np.cos(angle) * np.eye(4) + 1j * np.sin(angle) * SWAP)


@dataclass
class Circuit:
    """Ordered gate list over a fixed-width register."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate):
        for q in gate.targets:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"gate target {q} out of range for {self.n_qubits} qubits")

    def append(self, gate: Gate):
        self._check(gate)
        self.gates.append(gate)


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


def trotter_circuit(system: SpinSystem, plan: TrotterPlan) -> Circuit:
    """First-order product-formula circuit on the spin register: per step,
    the exchange gate of each coupling in (i, j) ascending order."""
    dt = plan.t / plan.n_steps
    step_gates = [Gate.two(i - 1, j - 1, pair_term_unitary(strength, dt))
                  for i, j, strength in sorted(system.couplings)]
    return Circuit(system.n_spins, step_gates * plan.n_steps)


def phase_shift(angle: float) -> np.ndarray:
    """diag(1, e^{i*angle}): the trial-phase rotation on the ancilla."""
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)


def basis_state(n_qubits: int, index: int) -> Statevector:
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0
    return Statevector(amps, n_qubits)


def from_amplitudes(amplitudes) -> Statevector:
    amps = np.asarray(amplitudes, dtype=complex)
    n = int(round(np.log2(amps.size)))
    return Statevector(amps, n)


def tensor(state: Statevector, other: Statevector) -> Statevector:
    """Product state with `other` appended on the least significant side."""
    return Statevector(np.kron(state.amplitudes, other.amplitudes),
                       state.n_qubits + other.n_qubits)


def controlled(control: int, targets, matrix) -> Gate:
    """Register unitary applied iff qubit `control` is |1>, as one gate on
    the targets followed by the control."""
    matrix = np.asarray(matrix, dtype=complex)
    full = (np.kron(matrix, _PROJECT_1)
            + np.kron(np.eye(len(matrix), dtype=complex), _PROJECT_0))
    return Gate.register(tuple(targets) + (control,), full)


def apply_matrix(amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...],
                 n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubit axes of a dense state,
    or of every column of a (2^n, m) block."""
    k = len(targets)
    shape = [2] * n + list(amps.shape[1:])
    tensor = np.moveaxis(amps.reshape(shape), targets, range(k))
    flat = matrix @ tensor.reshape(2 ** k, -1)
    return np.moveaxis(flat.reshape(shape), range(k), targets).reshape(amps.shape)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Return the state after the embedded unitary; norm is preserved."""
    n = state.n_qubits
    for q in gate.targets:
        if not 0 <= q < n:
            raise ValueError(f"gate target {q} out of range for {n}-qubit state")
    return Statevector(apply_matrix(state.amplitudes, gate.matrix, gate.targets, n), n)


def run_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    if circuit.n_qubits != state.n_qubits:
        raise ValueError("circuit and state widths differ")
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of the circuit: every gate applied once to
    the whole identity block."""
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for gate in circuit.gates:
        u = apply_matrix(u, gate.matrix, gate.targets, n)
    return u


def ancilla_p0(state: Statevector, ancilla_index: int) -> float:
    """Probability of reading |0> on the given qubit."""
    n = state.n_qubits
    if not 0 <= ancilla_index < n:
        raise ValueError(f"ancilla index {ancilla_index} out of range")
    probs = np.abs(state.amplitudes.reshape([2] * n)) ** 2
    probs = np.moveaxis(probs, ancilla_index, 0)
    return float(np.sum(probs[0]))


def qpde_circuit(system: SpinSystem, excitation: np.ndarray, t: float,
                 delta_eps: float, evolution: str = "exact",
                 n_steps: int | None = None) -> Circuit:
    """Interferometer circuit on n_spins register qubits plus one ancilla
    (the last qubit)."""
    n = system.n_spins
    ancilla = n
    register = tuple(range(n))
    circuit = Circuit(n + 1)
    circuit.append(Gate.register((ancilla,), HADAMARD))
    circuit.append(controlled(ancilla, register, excitation))
    circuit.append(Gate.register(register, evolution_block(system, t, evolution, n_steps)))
    circuit.append(controlled(ancilla, register, excitation.conj().T))
    circuit.append(Gate.register((ancilla,), phase_shift(delta_eps * t)))
    circuit.append(Gate.register((ancilla,), HADAMARD))
    return circuit


def circuit_p0(phi0: np.ndarray, excitation: np.ndarray, system: SpinSystem,
               t: float, delta_eps: float, evolution: str = "exact",
               n_steps: int | None = None) -> float:
    """Ancilla |0> probability of the literal circuit run on the register
    amplitudes phi0, tensored with an ancilla in |0>."""
    circuit = qpde_circuit(system, excitation, t, delta_eps, evolution, n_steps)
    final = run_circuit(tensor(from_amplitudes(phi0), basis_state(1, 0)), circuit)
    return ancilla_p0(final, system.n_spins)


def analytic_p0(coeffs_c: np.ndarray, coeffs_d: np.ndarray, energies: np.ndarray,
                t: float, delta_eps: float) -> float:
    """Interference probability from eigenstate overlaps:

        p0 = [1 + sum_jk |c_j|^2 |d_k|^2 cos((E_k - E_j - delta_eps) t)] / 2
    """
    c2 = np.abs(np.asarray(coeffs_c)) ** 2
    d2 = np.abs(np.asarray(coeffs_d)) ** 2
    if abs(c2.sum() - 1.0) > 1e-10 or abs(d2.sum() - 1.0) > 1e-10:
        raise ValueError("overlap coefficients must be normalized")
    energies = np.asarray(energies, dtype=float)
    gaps = energies[None, :] - energies[:, None]
    weights = np.outer(c2, d2)
    return float(0.5 * (1.0 + np.sum(weights * np.cos((gaps - delta_eps) * t))))


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


def pauli_transfer_overlap(phi0: np.ndarray, excitation: np.ndarray, step: Circuit,
                           n_steps: int, p_depol: float) -> complex:
    """Mean branch overlap E[z] of `n_steps` noisy repetitions of the
    two-qubit gates of `step`, on the whole operator space.

    The coherence X = E |phi0><phi0| is written in the Pauli basis, where
    the channel is real: each gate's transfer matrix is followed by the
    depolarizing insertion on its pair, which keeps a Pauli acting there
    with weight (1 - p) - p / 15 and leaves the others unchanged.
    """
    n = step.n_qubits
    basis = _pauli_basis(n)
    decay = np.full(16, 1.0 - 16.0 * p_depol / 15.0)
    decay[0] = 1.0
    transfer = np.eye(4 ** n)
    for gate in step.gates:
        digits = tuple(bit for q in gate.targets for bit in (2 * q, 2 * q + 1))
        transfer = apply_matrix(transfer, decay[:, None] * _pauli_transfer(gate.matrix),
                                digits, 2 * n)
    coherence = np.einsum("i,aij,j->a", phi0.conj(), basis, excitation @ phi0)
    final = np.linalg.matrix_power(transfer, n_steps) @ coherence
    readout = np.einsum("aij,ji->a", basis, excitation)
    return complex(np.vdot(readout, final))


def noisy_trajectory_p0(circuit: Circuit, p_depol: float, rng: np.random.Generator,
                        shots: int, ancilla_index: int,
                        initial_state: Statevector | None = None) -> float:
    """Average ancilla |0> probability over stochastic Pauli trajectories.

    After every gate on exactly two qubits, with probability p_depol a
    uniformly random non-identity two-qubit Pauli acts on its pair.  With
    p_depol = 0 every trajectory is the noiseless circuit and the exact
    probability is returned.  Each gate and each pair's 15 Paulis are
    embedded once as full-width matrices, and a trajectory carries raw
    amplitudes between them.
    """
    if not 0.0 <= p_depol <= 1.0:
        raise ValueError("p_depol must lie in [0, 1]")
    n = circuit.n_qubits
    if initial_state is None:
        initial_state = basis_state(n, 0)

    def embedded(targets, matrix):
        return apply_matrix(np.eye(2 ** n, dtype=complex), matrix, targets, n)

    gates = [embedded(gate.targets, gate.matrix) for gate in circuit.gates]
    noisy = [len(gate.targets) == 2 and p_depol > 0 for gate in circuit.gates]
    paulis = {gate.targets: [embedded(gate.targets, pauli) for pauli in TWO_QUBIT_PAULIS]
              for gate, hit in zip(circuit.gates, noisy) if hit}
    n_trajectories = 1 if p_depol == 0 else shots  # noiseless trajectories are identical
    total = 0.0
    for _ in range(n_trajectories):
        amps = initial_state.amplitudes
        for gate, matrix, hit in zip(circuit.gates, gates, noisy):
            amps = matrix @ amps
            if hit and rng.random() < p_depol:
                amps = paulis[gate.targets][rng.integers(15)] @ amps
        total += ancilla_p0(Statevector(amps, n), ancilla_index)
    return total / n_trajectories


def to_spin_eigenbasis(hamiltonian: np.ndarray, basis: list[SpinEigenfunction]) -> np.ndarray:
    """Congruence transform V^T H V for an orthonormal eigenfunction basis."""
    v = np.column_stack([b.coefficients for b in basis])
    if v.shape[0] != v.shape[1]:
        raise ValueError("basis does not span the space")
    gram = v.T @ v
    if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-10:
        raise ValueError("basis is not orthonormal")
    return v.T @ hamiltonian @ v


def gaussian_model(x: np.ndarray, offset: float, amplitude: float,
                   mu: float, sigma: float) -> np.ndarray:
    """The fit's surrogate offset + amplitude exp(-((x - mu) / sigma)^2 / 2)."""
    return offset + amplitude * np.exp(-0.5 * ((x - mu) / sigma) ** 2)


def build_hamiltonian(system: SpinSystem) -> np.ndarray:
    """Dense 2^n x 2^n Heisenberg Hamiltonian sum J (I/2 - P_ij), real symmetric."""
    n = system.n_spins
    half = 0.5 * np.eye(system.dim)
    h = np.zeros((system.dim, system.dim))
    for i, j, strength in system.couplings:
        h += strength * (half - exchange_operator(n, i, j))
    return h


def spin_squared(n: int) -> np.ndarray:
    """Total-spin operator S^2 = 3n/4 + sum_{i<j} (P_ij - 1/2) for n spin-1/2 sites."""
    half = 0.5 * np.eye(2 ** n)
    s2 = 0.75 * n * np.eye(2 ** n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s2 += exchange_operator(n, i, j) - half
    return s2


def spin_z(n: int) -> np.ndarray:
    """Total S_z, diagonal in the computational basis."""
    return np.diag([(n - 2 * bin(idx).count("1")) / 2.0 for idx in range(2 ** n)])


def random_system(rng: np.random.Generator, n: int) -> SpinSystem:
    """n spins with a random subset of the pairs coupled, each strength
    zero, negative or positive."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = [pair for pair in pairs if rng.random() < 0.8]
    strengths = rng.choice([0.0, -1.0, 1.0], size=len(chosen)) * rng.uniform(0, 2, len(chosen))
    return SpinSystem(n, tuple(pair + (float(j),) for pair, j in zip(chosen, strengths)))


def exact_evolution(system: SpinSystem, t: float) -> np.ndarray:
    """exp(-iHt) from numpy's eigh of the dense Hamiltonian."""
    values, vectors = np.linalg.eigh(build_hamiltonian(system))
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T
