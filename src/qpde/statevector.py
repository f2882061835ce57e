"""Dense statevector simulation for a handful of qubits.

Conventions used throughout the package:

* Qubits are indexed from 0, and qubit 0 is the MOST significant bit of
  the basis index.  Spin i of a spin system (1-based, physics style) sits
  on qubit i - 1, so e.g. the three-spin basis state |001> has index 1.
* Spin-up |a> maps to |0>, spin-down |b> maps to |1>.
* Ancilla qubits are appended after the register, i.e. they occupy the
  least significant bit.

States are immutable after construction; gate application returns a new
Statevector.  Gate matrices are checked for unitarity once, when the Gate
is built, not on every application.  The gate kernel acts on a dense
state or on a (2^n, m) block of column states alike, so a circuit's full
unitary is built by applying each gate once to the identity block.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "Statevector":
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n_qubits)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "Statevector":
        amps = np.asarray(amplitudes, dtype=complex)
        n = int(round(np.log2(amps.size)))
        return cls(amps, n)

    def tensor(self, other: "Statevector") -> "Statevector":
        """Product state with `other` appended on the least significant side."""
        return Statevector(np.kron(self.amplitudes, other.amplitudes),
                           self.n_qubits + other.n_qubits)


@dataclass(frozen=True)
class Gate:
    """A unitary acting on an explicit ordered set of target qubits.

    kind is one of "single", "two", "register" (acts on all listed
    targets as one block) or "controlled" (register unitary applied when
    the control qubit is |1>).
    """

    kind: str
    matrix: np.ndarray
    targets: tuple[int, ...]
    control: int | None = None

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
        if self.control is not None and self.control in self.targets:
            raise ValueError("control qubit cannot also be a target")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))

    @classmethod
    def single(cls, qubit: int, matrix) -> "Gate":
        return cls("single", _as_complex_matrix(matrix), (qubit,))

    @classmethod
    def two(cls, qubit_a: int, qubit_b: int, matrix) -> "Gate":
        """4x4 unitary on the ordered pair (qubit_a, qubit_b)."""
        return cls("two", _as_complex_matrix(matrix), (qubit_a, qubit_b))

    @classmethod
    def register(cls, targets, matrix) -> "Gate":
        return cls("register", _as_complex_matrix(matrix), tuple(targets))

    @classmethod
    def controlled(cls, control: int, targets, matrix) -> "Gate":
        """Register unitary applied iff qubit `control` is |1>."""
        return cls("controlled", _as_complex_matrix(matrix), tuple(targets),
                   control=int(control))

    @property
    def support(self) -> tuple[int, ...]:
        """All qubits the gate touches, control included."""
        if self.control is None:
            return self.targets
        return (self.control,) + self.targets


@dataclass
class Circuit:
    """Ordered gate list over a fixed-width register."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate):
        for q in gate.support:
            if not 0 <= q < self.n_qubits:
                raise ValueError(
                    f"gate target {q} out of range for {self.n_qubits} qubits")

    def append(self, gate: Gate):
        self._check(gate)
        self.gates.append(gate)


# Common single-qubit matrices.
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def phase_shift(angle: float) -> np.ndarray:
    """diag(1, e^{i*angle}): the trial-phase rotation on the ancilla."""
    return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=complex)


def apply_matrix(amps: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...],
                 n: int) -> np.ndarray:
    """Apply a 2^k x 2^k matrix to the listed qubit axes of a dense state,
    or of every column of a (2^n, m) block."""
    k = len(targets)
    shape = [2] * n + list(amps.shape[1:])
    tensor = np.moveaxis(amps.reshape(shape), targets, range(k))
    flat = matrix @ tensor.reshape(2 ** k, -1)
    return np.moveaxis(flat.reshape(shape), range(k), targets).reshape(amps.shape)


def _apply_gate_raw(amps: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    if gate.kind == "controlled":
        tensor = amps.reshape([2] * n + list(amps.shape[1:])).copy()
        tensor = np.moveaxis(tensor, gate.control, 0)
        branch = tensor[1]
        # Target axes shift down by one where they sat above the control.
        shifted = tuple(q if q < gate.control else q - 1 for q in gate.targets)
        tensor[1] = apply_matrix(branch.reshape((-1,) + amps.shape[1:]), gate.matrix,
                                 shifted, n - 1).reshape(branch.shape)
        return np.moveaxis(tensor, 0, gate.control).reshape(amps.shape)
    return apply_matrix(amps, gate.matrix, gate.targets, n)


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Return the state after the embedded unitary; norm is preserved."""
    n = state.n_qubits
    for q in gate.support:
        if not 0 <= q < n:
            raise ValueError(f"gate target {q} out of range for {n}-qubit state")
    return Statevector(_apply_gate_raw(state.amplitudes, gate, n), n)


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
        u = _apply_gate_raw(u, gate, n)
    return u


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b>, conjugating the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def ancilla_p0(state: Statevector, ancilla_index: int) -> float:
    """Probability of reading |0> on the given qubit."""
    n = state.n_qubits
    if not 0 <= ancilla_index < n:
        raise ValueError(f"ancilla index {ancilla_index} out of range")
    tensor = np.abs(state.amplitudes.reshape([2] * n)) ** 2
    tensor = np.moveaxis(tensor, ancilla_index, 0)
    return float(np.sum(tensor[0]))
