"""Heisenberg spin systems and their spin eigenfunctions.

The model is H = -2 * sum_{i<j} J_ij (S_i . S_j) over spin-1/2 sites, so a
positive coupling is ferromagnetic and a negative one antiferromagnetic.
With S_i . S_j = P_ij / 2 - 1/4, where the exchange operator P_ij swaps
spins i and j, H = sum J_ij (1/2 - P_ij).  H commutes with total S^2,
which is why products of S^2 eigenfunctions ("spin eigenfunctions") are
the natural preparation states: for symmetric coupling patterns they are
exact energy eigenstates.

Spin eigenfunctions are generated by the angular-momentum addition
recurrence, coupling one spin-1/2 at a time.  A target (n, s) sector is
reached along a genealogical path of intermediate total spins
(s_1=1/2, s_2, ..., s_n=s) with |s_k+1 - s_k| = 1/2; each path yields one
member of the degenerate family.  The degeneracy index d numbers the
paths in descending lexicographic order, so d=1 always descends through
the highest intermediate spins (for three spins, d=1 is the doublet built
from the triplet, d=2 the one built from the singlet).

H is kept as its blocks on the (s, ms) sectors (`sector_hamiltonian`), at
most 2x2 up to three spins, the package's scope; `system_eigensystem`
solves them in closed form.  `assignment` picks the eigenspace a state
selects, and `exact_gap`, a run's reference gap, subtracts two energies.

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


def _doubled(value: float, name: str) -> int:
    """2 * value as an int; ValueError unless value is a half-integer."""
    if not (math.isfinite(2 * value) and 2 * value == round(2 * value)):
        raise ValueError(f"{name}={value} must be a half-integer")
    return int(round(2 * value))


def _branch_paths(n: int, two_s: int) -> list[tuple[int, ...]]:
    """All genealogical paths to total spin two_s / 2 at n spins, as doubled
    intermediate spins (2 s_1, ..., 2 s_n), in descending lexicographic order."""

    def extend(path: tuple[int, ...]) -> list[tuple[int, ...]]:
        if len(path) == n:
            return [path] if path[-1] == two_s else []
        out = []
        current = path[-1]
        for nxt in (current + 1, current - 1):
            # Prune branches that cannot reach s in the remaining steps.
            remaining = n - len(path) - 1
            if nxt < 0 or abs(nxt - two_s) > remaining:
                continue
            out.extend(extend(path + (nxt,)))
        return out

    return extend((1,))


def degeneracy(n: int, s: float) -> int:
    """Number of (n, s) spin eigenfunction families; s is a half-integer."""
    return len(_branch_paths(n, _doubled(s, "s")))


def spin_eigenfunction(n: int, s: float, ms: float, d: int = 1) -> SpinEigenfunction:
    """Build X(n, s, ms; d) by the addition-theorem recurrence.

    Raises ValueError for invalid quantum numbers (s and ms must be
    half-integers) or an out-of-range degeneracy index.
    """
    if n < 1:
        raise ValueError("need at least one spin")
    two_s, two_ms = _doubled(s, "s"), _doubled(ms, "ms")
    if not 0 <= two_s <= n or abs(two_ms) > two_s or (n - two_s) % 2 or (two_s - two_ms) % 2:
        raise ValueError(f"quantum numbers (s={s}, ms={ms}) invalid for n={n}")
    paths = _branch_paths(n, two_s)
    if not 1 <= d <= len(paths):
        raise ValueError(f"degeneracy index {d} out of range 1..{len(paths)}")
    path = paths[d - 1]
    coeffs = _recurse_path(path, two_ms)
    # Sign convention: when the final coupling lowers the total spin, the
    # M < 0 members enter with the dominant-weight ket positive, i.e. the
    # opposite overall sign to the raw recurrence.  Applied only at the
    # top level so intermediate states stay phase-consistent.
    if n >= 2 and two_ms < 0 and path[-1] == path[-2] - 1:
        coeffs = -coeffs
    return SpinEigenfunction(n, two_s / 2, two_ms / 2, d, coeffs)


def _recurse_path(path: tuple[int, ...], two_ms: int) -> np.ndarray:
    """Coefficient vector along one path of doubled spins, at doubled ms two_ms.

    Coupling the k-th spin onto an (k-1)-spin eigenfunction with total
    spin S gives, for the two branches S' = S +- 1/2 and target magnetic
    number M:

        X(k, S+1/2, M) = [ sqrt(S+M+1/2) X(k-1, S, M-1/2) (x) up
                         + sqrt(S-M+1/2) X(k-1, S, M+1/2) (x) down ] / sqrt(2S+1)
        X(k, S-1/2, M) = [-sqrt(S-M+1/2) X(k-1, S, M-1/2) (x) up
                         + sqrt(S+M+1/2) X(k-1, S, M+1/2) (x) down ] / sqrt(2S+1)

    with X == 0 whenever |M| exceeds the sector spin.
    """

    def build(level: int, two_m: int) -> np.ndarray:
        size = 2 ** level
        if abs(two_m) > path[level - 1]:
            return np.zeros(size)
        if level == 1:
            return np.array([1.0, 0.0]) if two_m == 1 else np.array([0.0, 1.0])
        two_prev = path[level - 2]
        up = build(level - 1, two_m - 1)
        down = build(level - 1, two_m + 1)
        norm = 2 * (two_prev + 1)
        a = (two_prev + two_m + 1) / norm
        b = (two_prev - two_m + 1) / norm
        if path[level - 1] == two_prev + 1:
            coeff_up, coeff_down = np.sqrt(a), np.sqrt(b)
        else:
            coeff_up, coeff_down = -np.sqrt(b), np.sqrt(a)
        out = np.zeros(size)
        # Appending the new spin adds one low-order bit: up -> even slots.
        out[0::2] = coeff_up * up
        out[1::2] = coeff_down * down
        return out

    return build(len(path), two_ms)


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
    for two_s in range(n, -1, -2):
        for d in range(1, len(_branch_paths(n, two_s)) + 1):
            for two_ms in range(two_s, -two_s - 1, -2):
                basis.append(spin_eigenfunction(n, two_s / 2, two_ms / 2, d))
    return basis


class ExchangeSectors(NamedTuple):
    """The exchange operators of n spins, sector by sector (see
    `exchange_sectors`)."""

    sizes: tuple[int, ...]
    blocks: Mapping[tuple[int, int], tuple[tuple[tuple[float, ...], ...], ...]]
    units: np.ndarray
    basis: np.ndarray


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
    stack is stored complex, the type of the operators it assembles, and
    `basis` holds the sectors' basis vectors as columns in the same order.
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
    basis = np.hstack(bases)
    units.setflags(write=False)
    basis.setflags(write=False)
    sizes = tuple(v.shape[1] for v in bases)
    return ExchangeSectors(sizes, MappingProxyType(blocks), units, basis)


@lru_cache(maxsize=512)
def sector_hamiltonian(system: SpinSystem) -> tuple[ExchangeSectors, tuple]:
    """Cached sector table of the register and H = sum J_ij (1/2 - P_ij) on
    each sector in table order: a float on a 1x1 sector, a real symmetric
    2x2 nested tuple on a doublet plane.  Up to three spins no sector is
    larger, so a larger register raises ValueError."""
    if system.n_spins > 3:
        raise ValueError(f"the sector frame covers at most 3 spins, got {system.n_spins}")
    sectors = exchange_sectors(system.n_spins)
    terms = [(strength, sectors.blocks[i, j]) for i, j, strength in system.couplings]
    half = 0.5 * sum(strength for strength, _ in terms)

    def entry(sector: int, a: int, b: int) -> float:
        return half * (a == b) - sum([strength * blocks[sector][a][b]
                                      for strength, blocks in terms])

    return sectors, tuple(entry(k, 0, 0) if size == 1 else
                          ((entry(k, 0, 0), entry(k, 0, 1)), (entry(k, 0, 1), entry(k, 1, 1)))
                          for k, size in enumerate(sectors.sizes))


#: Eigenvalues closer than this form one degenerate eigenspace.
DEGENERACY_ATOL = 1e-9


@lru_cache(maxsize=512)
def system_eigensystem(system: SpinSystem) -> tuple[np.ndarray, np.ndarray]:
    """Cached exact spectrum from the sector blocks of `sector_hamiltonian`:
    ascending eigenvalues and the real eigenvectors as columns, both
    read-only.  A doublet block c I + r (cos 2a Z + sin 2a X) has levels
    c -+ r, and its plane's basis turned by the half-angle a holds its
    eigenvectors (-sin a, cos a) and (cos a, sin a)."""
    sectors, hamiltonian = sector_hamiltonian(system)
    energies, rotation, k = [], np.zeros((system.dim, system.dim)), 0
    for size, h in zip(sectors.sizes, hamiltonian):
        if size == 1:
            energies.append(h)
            rotation[k, k] = 1.0
        else:
            (h00, h01), (_, h11) = h
            centre, split = 0.5 * (h00 + h11), 0.5 * (h00 - h11)
            radius, angle = math.hypot(split, h01), 0.5 * math.atan2(h01, split)
            c, s = math.cos(angle), math.sin(angle)
            energies += [centre - radius, centre + radius]
            rotation[k:k + 2, k:k + 2] = ((-s, c), (c, s))
        k += size
    order = sorted(range(system.dim), key=energies.__getitem__)
    values = np.array(energies)[order]
    vectors = sectors.basis @ rotation[:, order]
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
    on the basis picked inside a degenerate eigenspace.
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
