"""Dense statevector simulation for a handful of qubits.

Conventions used throughout the package:

* Qubits are indexed from 0, and qubit 0 is the MOST significant bit of
  the basis index.  Spin i of a spin system (1-based, physics style) sits
  on qubit i - 1, so e.g. the three-spin basis state |001> has index 1.
* Spin-up |a> maps to |0>, spin-down |b> maps to |1>.
* Ancilla qubits are appended after the register, i.e. they occupy the
  least significant bit.

States are immutable after construction.  Gate matrices are checked for
unitarity once, when the Gate is built.  The package builds only
whole-register evolution blocks; two-qubit gates serve the literal
references.  Gate lists (`Circuit`), the gate-by-gate interpreter and its
qubit-axis kernel live with the other literal references in the test
suite (`tests/oracles.py`).
"""
from __future__ import annotations

from dataclasses import dataclass

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

