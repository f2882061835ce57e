"""Heisenberg spin systems and their spin eigenfunctions.

The model is H = -2 * sum_{i<j} J_ij (S_i . S_j) over spin-1/2 sites, so a
positive coupling is ferromagnetic and a negative one antiferromagnetic.
With S_i . S_j = P_ij / 2 - 1/4, where the exchange operator P_ij swaps
spins i and j, H = sum J_ij (1/2 - P_ij); H and total S^2 are built from
cached permutation matrices.  H commutes with total S^2, which is why
products of S^2 eigenfunctions ("spin eigenfunctions") are the natural
preparation states: for symmetric coupling patterns they are exact energy
eigenstates.

Spin eigenfunctions are generated by the angular-momentum addition
recurrence, coupling one spin-1/2 at a time.  A target (n, s) sector is
reached along a genealogical path of intermediate total spins
(s_1=1/2, s_2, ..., s_n=s) with |s_k+1 - s_k| = 1/2; each path yields one
member of the degenerate family.  The degeneracy index d numbers the
paths in descending lexicographic order, so d=1 always descends through
the highest intermediate spins (for three spins, d=1 is the doublet built
from the triplet, d=2 the one built from the singlet).

The reference gap of a run compares the eigenspaces of the exact
spectrum that its two preparation states select.  `assignment` answers
that once per (system, label) from the cached diagonalization
`system_eigensystem`, and `exact_gap` subtracts the two energies.

Qubit conventions, used throughout the package and its test oracles:

* Qubits are indexed from 0, and qubit 0 is the MOST significant bit of
  the basis index.  Spin i of a spin system (1-based, physics style) sits
  on qubit i - 1, so e.g. the three-spin basis state |001> has index 1.
* Spin-up |a> maps to |0>, spin-down |b> maps to |1>.
* An ancilla qubit is appended after the register, i.e. it occupies the
  least significant bit.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class SpinSystem:
    """Spin count plus pairwise exchange couplings (i, j, J) with 1 <= i < j."""

    n_spins: int
    couplings: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError("n_spins must be positive")
        seen = set()
        normalized = []
        for entry in self.couplings:
            i, j, strength = entry
            if not (1 <= i < j <= self.n_spins):
                raise ValueError(f"coupling pair ({i}, {j}) invalid for "
                                 f"{self.n_spins} spins (need 1 <= i < j <= n)")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling pair ({i}, {j})")
            strength = float(strength)
            if not math.isfinite(strength):
                raise ValueError(f"coupling ({i}, {j}) strength must be finite, got {strength!r}")
            seen.add((i, j))
            normalized.append((int(i), int(j), strength))
        object.__setattr__(self, "couplings", tuple(normalized))

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


def two_spin_system(j12: float = 1.0) -> SpinSystem:
    return SpinSystem(2, ((1, 2, j12),))


def linear_chain(j12: float = 1.0, j23: float = 1.0) -> SpinSystem:
    return SpinSystem(3, ((1, 2, j12), (2, 3, j23)))


def triangle(j12: float = 1.0, j23: float = 1.0, j13: float = 1.0) -> SpinSystem:
    return SpinSystem(3, ((1, 2, j12), (1, 3, j13), (2, 3, j23)))


@lru_cache(maxsize=None)
def exchange_operator(n: int, i: int, j: int) -> np.ndarray:
    """Real 2^n x 2^n permutation matrix P_ij that swaps spins i and j
    (1-based); read-only and cached."""
    index = np.arange(2 ** n)
    differ = ((index >> (n - i)) ^ (index >> (n - j))) & 1
    swapped = index ^ (differ << (n - i)) ^ (differ << (n - j))
    p = np.eye(2 ** n)[swapped]
    p.setflags(write=False)
    return p


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
    if n < 1:
        raise ValueError("need at least one spin")
    half = 0.5 * np.eye(2 ** n)
    s2 = 0.75 * n * np.eye(2 ** n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            s2 += exchange_operator(n, i, j) - half
    return s2


def spin_z(n: int) -> np.ndarray:
    """Total S_z, diagonal in the computational basis."""
    diag = [(n - 2 * bin(idx).count("1")) / 2.0 for idx in range(2 ** n)]
    return np.diag(diag)


@dataclass(frozen=True)
class SpinEigenfunction:
    """Simultaneous S^2 / S_z eigenvector with real coefficients.

    s and ms are stored as floats (half-integers); d is the 1-based
    degeneracy index described in the module docstring.
    """

    n: int
    s: float
    ms: float
    d: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.size != 2 ** self.n:
            raise ValueError("coefficient length does not match spin count")
        norm = float(np.sum(coeffs ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"eigenfunction not normalized: {norm!r}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _branch_paths(n: int, s: Fraction) -> list[tuple[Fraction, ...]]:
    """All genealogical paths from one spin up to total spin s at n spins,
    in descending lexicographic order of the intermediate-spin sequence."""
    half = Fraction(1, 2)

    def extend(path: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
        if len(path) == n:
            return [path] if path[-1] == s else []
        out = []
        current = path[-1]
        for nxt in (current + half, current - half):
            # Prune branches that cannot reach s in the remaining steps.
            remaining = n - len(path) - 1
            if nxt < 0 or abs(nxt - s) > Fraction(remaining, 2):
                continue
            out.extend(extend(path + (nxt,)))
        return out

    return extend((half,))


def degeneracy(n: int, s: float) -> int:
    """Number of independent (n, s) spin eigenfunction families."""
    return len(_branch_paths(n, Fraction(s).limit_denominator(2)))


def spin_eigenfunction(n: int, s: float, ms: float, d: int = 1) -> SpinEigenfunction:
    """Build X(n, s, ms; d) by the addition-theorem recurrence.

    Raises ValueError for invalid quantum numbers or an out-of-range
    degeneracy index.
    """
    s_frac = Fraction(s).limit_denominator(2)
    ms_frac = Fraction(ms).limit_denominator(2)
    if n < 1:
        raise ValueError("need at least one spin")
    if (s_frac * 2).denominator != 1 or (ms_frac * 2).denominator != 1:
        raise ValueError(f"s={s} and ms={ms} must be half-integers")
    if (s_frac - Fraction(n, 2)).denominator != 1:
        raise ValueError(f"s={s} has wrong parity for {n} spins")
    if s_frac < 0 or s_frac > Fraction(n, 2) or abs(ms_frac) > s_frac:
        raise ValueError(f"quantum numbers (s={s}, ms={ms}) invalid for n={n}")
    paths = _branch_paths(n, s_frac)
    if not paths:
        raise ValueError(f"no coupling path reaches s={s} with {n} spins")
    if not 1 <= d <= len(paths):
        raise ValueError(f"degeneracy index {d} out of range 1..{len(paths)}")
    path = paths[d - 1]
    coeffs = _recurse_path(path, ms_frac)
    # Sign convention: when the final coupling lowers the total spin, the
    # M < 0 members enter with the dominant-weight ket positive, i.e. the
    # opposite overall sign to the raw recurrence.  Applied only at the
    # top level so intermediate states stay phase-consistent.
    if n >= 2 and ms_frac < 0 and path[-1] == path[-2] - Fraction(1, 2):
        coeffs = -coeffs
    return SpinEigenfunction(n, float(s_frac), float(ms_frac), d, coeffs)


def _recurse_path(path: tuple[Fraction, ...], ms: Fraction) -> np.ndarray:
    """Coefficient vector for the eigenfunction along one branching path.

    Coupling the k-th spin onto an (k-1)-spin eigenfunction with total
    spin S gives, for the two branches S' = S +- 1/2 and target magnetic
    number M:

        X(k, S+1/2, M) = [ sqrt(S+M+1/2) X(k-1, S, M-1/2) (x) up
                         + sqrt(S-M+1/2) X(k-1, S, M+1/2) (x) down ] / sqrt(2S+1)
        X(k, S-1/2, M) = [-sqrt(S-M+1/2) X(k-1, S, M-1/2) (x) up
                         + sqrt(S+M+1/2) X(k-1, S, M+1/2) (x) down ] / sqrt(2S+1)

    with X == 0 whenever |M| exceeds the sector spin.
    """
    half = Fraction(1, 2)

    def build(level: int, m: Fraction) -> np.ndarray:
        size = 2 ** level
        if abs(m) > path[level - 1]:
            return np.zeros(size)
        if level == 1:
            return np.array([1.0, 0.0]) if m == half else np.array([0.0, 1.0])
        s_prev = path[level - 2]
        s_new = path[level - 1]
        up = build(level - 1, m - half)
        down = build(level - 1, m + half)
        norm = float(2 * s_prev + 1)
        a = float(s_prev + m + half)
        b = float(s_prev - m + half)
        if s_new == s_prev + half:
            coeff_up, coeff_down = np.sqrt(a / norm), np.sqrt(b / norm)
        else:
            coeff_up, coeff_down = -np.sqrt(b / norm), np.sqrt(a / norm)
        out = np.zeros(size)
        # Appending the new spin adds one low-order bit: up -> even slots.
        out[0::2] = coeff_up * up
        out[1::2] = coeff_down * down
        return out

    return build(len(path), ms)


_SQRT2 = np.sqrt(2.0)
_SQRT6 = np.sqrt(6.0)

#: Preparation states used by the gap-estimation runs.  T/S are the
#: two-spin triplet (ms=0) and singlet; Q/D1/D2 are the three-spin quartet
#: (ms=3/2) and the two doublets in the preparation convention where D1
#: puts weight 2 on the middle spin flipped, |010>.  Each entry is
#: (n, s, ms, d, amplitudes by basis index); D1_rec / D2_rec have no
#: amplitudes and are the recurrence outputs spin_eigenfunction(3, 1/2,
#: 1/2, d) for d = 1, 2, which span the same doublet plane in a rotated
#: frame.
NAMED_STATE_SPECS = {
    "T": (2, 1.0, 0.0, 1, {0b01: 1 / _SQRT2, 0b10: 1 / _SQRT2}),
    "S": (2, 0.0, 0.0, 1, {0b01: 1 / _SQRT2, 0b10: -1 / _SQRT2}),
    "Q": (3, 1.5, 1.5, 1, {0b000: 1.0}),
    "D1": (3, 0.5, 0.5, 1, {0b010: 2 / _SQRT6, 0b100: -1 / _SQRT6, 0b001: -1 / _SQRT6}),
    "D2": (3, 0.5, 0.5, 2, {0b001: 1 / _SQRT2, 0b100: -1 / _SQRT2}),
    "D1_rec": (3, 0.5, 0.5, 1, None),
    "D2_rec": (3, 0.5, 0.5, 2, None),
}


def named_state(label: str, n_spins: int) -> SpinEigenfunction:
    """Preparation state by label; see NAMED_STATE_SPECS for the catalog."""
    if label not in NAMED_STATE_SPECS:
        raise ValueError(f"unknown state label {label!r}; expected one of "
                         f"{sorted(NAMED_STATE_SPECS)}")
    n, s, ms, d, entries = NAMED_STATE_SPECS[label]
    if n != n_spins:
        raise ValueError(f"state {label!r} requires {n} spins, got {n_spins}")
    if entries is None:
        return spin_eigenfunction(n, s, ms, d)
    coeffs = np.zeros(2 ** n)
    for index, value in entries.items():
        coeffs[index] = value
    return SpinEigenfunction(n, s, ms, d, coeffs)


def spin_eigenbasis(n: int) -> list[SpinEigenfunction]:
    """Complete orthonormal eigenfunction list, sectors ordered by total
    spin descending, then degeneracy index, then ms descending."""
    basis = []
    s = Fraction(n, 2)
    while s >= 0:
        n_paths = degeneracy(n, float(s))
        for d in range(1, n_paths + 1):
            m = s
            while m >= -s:
                basis.append(spin_eigenfunction(n, float(s), float(m), d))
                m -= 1
        s -= 1
    return basis


class ExchangeSectors(NamedTuple):
    """The exchange operators of n spins, sector by sector (see
    `exchange_sectors`)."""

    sizes: tuple[int, ...]
    blocks: Mapping[tuple[int, int], tuple[tuple[tuple[float, ...], ...], ...]]
    units: np.ndarray


@lru_cache(maxsize=None)
def exchange_sectors(n: int) -> ExchangeSectors:
    """Every exchange operator P_ij of n spins as blocks on the (s, ms)
    sectors of the fixed eigenbasis `spin_eigenbasis(n)`; built on first
    use, then cached and read-only.

    P_ij commutes with S^2 and S_z, so it maps the span of each sector's
    m basis vectors V (one per degeneracy index) into itself, where it is
    the real symmetric m x m block V^T P_ij V.  Sectors are (s, ms) pairs,
    not s alone: the recurrence's sign convention flips some ms < 0
    members, so one s has different blocks at different ms.  `sizes` holds
    each sector's m in eigenbasis order, `blocks[(i, j)]` P_ij's block in
    each sector as nested tuples of floats, and `units` the read-only stack
    of the real 2^n x 2^n matrices v_a v_b^T, sector by sector and (a, b)
    row-major within one: an operator that is block diagonal on the
    sectors is its blocks' entries in that order, times the stack.  The
    stack is stored complex, the type of the operators it assembles.
    """
    sectors: dict[tuple[float, float], list[np.ndarray]] = {}
    for member in spin_eigenbasis(n):
        sectors.setdefault((member.s, member.ms), []).append(member.coefficients)
    bases = [np.column_stack(vectors) for vectors in sectors.values()]
    blocks = {(i, j): tuple(tuple(map(tuple, (v.T @ exchange_operator(n, i, j) @ v).tolist()))
                            for v in bases)
              for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    units = np.array([np.outer(v[:, a], v[:, b]) for v in bases
                      for a in range(v.shape[1]) for b in range(v.shape[1])], dtype=complex)
    units.setflags(write=False)
    return ExchangeSectors(tuple(v.shape[1] for v in bases), MappingProxyType(blocks), units)


#: Eigenvalues closer than this form one degenerate eigenspace.
DEGENERACY_ATOL = 1e-9


@lru_cache(maxsize=512)
def system_eigensystem(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cached exact diagonalization of the system Hamiltonian: ascending
    eigenvalues and the eigenvectors as columns, both read-only."""
    values, vectors = np.linalg.eigh(build_hamiltonian(system))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


@lru_cache(maxsize=1024)
def assignment(system: SpinSystem, label: str) -> tuple[int, float, float]:
    """(eigenstate index, energy, weight) of the eigenspace that the named
    preparation state selects; an unknown or wrong-size label raises
    ValueError and is not cached.

    Eigenvalues within DEGENERACY_ATOL are grouped into eigenspaces, and
    the state goes to the eigenspace holding the largest share of its
    weight, ties going to the lower energy.  The index is the eigenspace's
    first (lowest) eigenvector index and the weight is the squared norm of
    the state's projection onto the whole eigenspace, so neither depends
    on the basis the eigensolver picks inside a degenerate eigenspace.
    """
    values, vectors = system_eigensystem(system)
    weights = np.abs(vectors.T @ named_state(label, system.n_spins).coefficients) ** 2
    energies = values.tolist()
    starts = [0] + [k for k in range(1, len(energies))
                    if energies[k] - energies[k - 1] > DEGENERACY_ATOL]
    shares = np.add.reduceat(weights, starts)
    best = int(np.argmax(shares > np.max(shares) - 1e-12))
    first = starts[best]
    return first, energies[first], float(shares[best])


def exact_gap(system: SpinSystem, ground_label: str, excited_label: str) -> float:
    """Reference energy difference between the eigenspaces that the named
    preparation states select (see `assignment`)."""
    ground_energy = assignment(system, ground_label)[1]
    return assignment(system, excited_label)[1] - ground_energy
