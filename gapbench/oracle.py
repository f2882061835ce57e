"""Reference gaps computed without the qpde package.

The Hamiltonian H = -2 * sum J_ij (S_i . S_j) is assembled from the
benchmark's own Pauli Kronecker products (spin i on qubit i - 1, qubit 0
the most significant bit, spin-up = |0>), diagonalized with
numpy.linalg.eigh, and each preparation state is assigned to the
eigenspace that holds the largest share of its weight.  Degenerate
eigenvalues are grouped first, so the assignment does not depend on which
basis eigh picks inside a degenerate eigenspace.
"""
from __future__ import annotations

import numpy as np

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_DEGENERACY_ATOL = 1e-9
_R2, _R6 = np.sqrt(2.0), np.sqrt(6.0)

#: Preparation states as {basis index: amplitude}; |b1 b2 b3> has b1 as MSB.
PREPARATION_STATES = {
    "T": (2, {0b01: 1 / _R2, 0b10: 1 / _R2}),
    "S": (2, {0b01: 1 / _R2, 0b10: -1 / _R2}),
    "Q": (3, {0b000: 1.0}),
    "D1": (3, {0b010: 2 / _R6, 0b100: -1 / _R6, 0b001: -1 / _R6}),
    "D2": (3, {0b001: 1 / _R2, 0b100: -1 / _R2}),
}

#: The paper's six systems: (name, n_spins, couplings, ground, excited, gap,
#: tolerance on the published gap).
PAPER_SYSTEMS = (
    ("two_spin", 2, ((1, 2, 1.0),), "T", "S", 2.0, 1e-9),
    ("linear_chain", 3, ((1, 2, 1.0), (2, 3, 1.0)), "Q", "D2", 1.0, 1e-9),
    ("frustrated_triangle", 3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)),
     "Q", "D2", 3.0, 1e-9),
    ("nonfrustrated_triangle_d1", 3, ((1, 2, 1.0), (1, 3, 2.0), (2, 3, 1.0)),
     "Q", "D1", 3.0, 1e-9),
    ("nonfrustrated_triangle_d2", 3, ((1, 2, 1.0), (1, 3, 2.0), (2, 3, 1.0)),
     "Q", "D2", 5.0, 1e-9),
    ("asymmetric_chain", 3, ((1, 2, 1.0), (2, 3, 1.1)), "Q", "D1", 3.1536, 1e-4),
)


def _site(op: np.ndarray, site: int, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for k in range(1, n + 1):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def hamiltonian(n: int, couplings) -> np.ndarray:
    """-2 J (S_i . S_j) summed over couplings, with S = sigma / 2."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i, j, strength in couplings:
        for pauli in _PAULIS:
            h -= 0.5 * strength * _site(pauli, i, n) @ _site(pauli, j, n)
    return h


def preparation_state(label: str, n: int) -> np.ndarray:
    size, entries = PREPARATION_STATES[label]
    if size != n:
        raise ValueError(f"state {label} needs {size} spins, not {n}")
    vec = np.zeros(2 ** n, dtype=complex)
    for index, amplitude in entries.items():
        vec[index] = amplitude
    return vec


def _assigned_energy(values: np.ndarray, vectors: np.ndarray, state: np.ndarray) -> float:
    weights = np.abs(vectors.conj().T @ state) ** 2
    best_weight, best_energy = -1.0, 0.0
    start = 0
    while start < values.size:
        stop = start + 1
        while stop < values.size and values[stop] - values[start] < _DEGENERACY_ATOL:
            stop += 1
        weight = float(np.sum(weights[start:stop]))
        # Strictly larger wins, so ties go to the lower energy.
        if weight > best_weight + 1e-12:
            best_weight, best_energy = weight, float(np.mean(values[start:stop]))
        start = stop
    return best_energy


def reference_gap(n: int, couplings, ground: str, excited: str) -> float:
    """E(excited) - E(ground) for the eigenspaces the two states select."""
    values, vectors = np.linalg.eigh(hamiltonian(n, couplings))
    return (_assigned_energy(values, vectors, preparation_state(excited, n))
            - _assigned_energy(values, vectors, preparation_state(ground, n)))


def closed_form_gap(family: str, a: float, b: float = 0.0) -> float:
    """Gaps of the generated families: two-spin T->S is 2J; triangle(a, a, b)
    (b = 0 is the linear chain) has Q->D1 = 3a and Q->D2 = a + 2b."""
    return {"two_spin": 2.0 * a, "D1": 3.0 * a, "D2": a + 2.0 * b}[family]


def self_check() -> None:
    """Raise if the oracle misses the paper's gaps or the closed forms."""
    for name, n, couplings, ground, excited, gap, tol in PAPER_SYSTEMS:
        got = reference_gap(n, couplings, ground, excited)
        if abs(got - gap) > tol:
            raise RuntimeError(f"oracle gap {got!r} for {name} misses the paper's {gap}")
    for a, b in ((0.7, 0.0), (1.3, 0.4), (1.9, 1.9)):
        couplings = ((1, 2, a), (2, 3, a)) + (((1, 3, b),) if b else ())
        cases = ((2, ((1, 2, a),), "T", "S", closed_form_gap("two_spin", a)),
                 (3, couplings, "Q", "D1", closed_form_gap("D1", a, b)),
                 (3, couplings, "Q", "D2", closed_form_gap("D2", a, b)))
        for n, cpl, ground, excited, gap in cases:
            got = reference_gap(n, cpl, ground, excited)
            if abs(got - gap) > 1e-9:
                raise RuntimeError(f"oracle gap {got!r} misses closed form {gap!r} "
                                   f"for {cpl} {ground}->{excited}")
