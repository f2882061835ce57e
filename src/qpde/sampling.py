"""Shot sampling and the depolarizing noise channel.

Every interferometer run reads one fringe: with the register branches
chi_b = U_evo |phi_b> and their overlap z = <chi_0| U_swap^dag |chi_1>,
the ancilla |0> probability is p0 = (1 + Re(e^{i delta_eps t} z)) / 2,
computed only by `fringe_p0`.  `sample_p0` draws a sweep's shot counts
in one binomial call on one stream of `derived_rng`.

Noise model: after every two-qubit gate, with probability p_depol a
uniformly random non-identity two-qubit Pauli is inserted on that gate's
pair.  Only the exchange rotations of the evolution carry noise; the
excitation swap and the ancilla gates are treated as clean.  Each shot is
one such trajectory followed by a single ancilla measurement, so a sweep
point's count is exactly Binomial(shots, fringe_p0(E[z], phase)): the
trajectories enter only through the mean overlap E[z].  Both branches
see the same register operations, so z is linear in the branch coherence
X = U_swap |phi_0><phi_0| and E[z] = tr(U_swap^dag Phi(X)) for the
depolarizing channel Phi of the evolution, which `depolarized_overlap`
computes exactly.  Exchange rotations and pair depolarizing conserve the
charge popcount(a) - popcount(b) of a unit |a><b|, so it runs on the
charges X holds (15 of 64 entries for quartet to doublet).  There a noisy
rotation e^{-ia/2}(c + i s P), c = cos a, s = sin a, maps X to
(1 - q)(c^2 X + s^2 P X P + i c s [P, X]) + q Tr_ij(X) (x) I/4, q = 16p/15.

The n_steps power of a step's transfer matrix on that sector does not
depend on the preparation, so `_noisy_block` caches it, read-only, keyed
on (n, rotations, n_steps, p_depol, held charges) with maxsize 1024: a
retried or restarted sweep, a later run at another seed and the other
doublet of the same system reuse it, and each call only contracts it with
its coherence.  At most 1024 blocks of m x m complex are held: 3.7 MB for
three-spin quartet-to-doublet blocks (m = 15), 64 MiB for whole-space
three-spin blocks (m = 64).

The trajectory average and the density-matrix channel it is checked
against are test oracles (`tests/oracles.py`).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin import exchange_operator


def integer_field(value, name: str) -> int:
    """An integer configuration field as an int; anything else, a bool too, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SamplerSpec:
    """How sweep probabilities are turned into data.

    mode "exact" returns ideal probabilities, "shots" draws one binomial
    count of `shots` measurements per sweep point, and "noisy" draws it
    from the depolarized fringe, each shot being one noise trajectory and
    one measurement.  All randomness derives from `seed`, one
    `derived_rng` stream per sweep.
    """

    mode: str = "exact"
    shots: int = 5000
    p_depol: float = 0.002
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "shots", "noisy"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        for name in ("shots", "seed"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        if self.shots < 1:
            raise ValueError("shot count must be at least 1")
        if not 0.0 <= self.p_depol <= 1.0:
            raise ValueError("p_depol must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent stream for a (seed, indices...) coordinate.  A sweep
    draws its grid from (seed, iteration, attempt), whatever ran before."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def fringe_p0(z, phase):
    """Ancilla |0> probability (1 + Re(e^{i phase} z)) / 2 from a branch
    overlap z at trial phase delta_eps * t; broadcasts over arrays of
    either."""
    return np.clip(0.5 * (1.0 + np.real(np.exp(1j * phase) * z)), 0.0, 1.0)


def sample_p0(true_p, shots: int, rng: np.random.Generator):
    """Binomial frequencies k/shots of a probability, or of an array in one draw."""
    p = np.asarray(true_p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"probability {true_p!r} outside [0, 1]")
    return rng.binomial(shots, p) / shots


@lru_cache(maxsize=None)
def _charges(n: int) -> np.ndarray:
    """Charge popcount(a) - popcount(b) of each matrix unit |a><b|, row-major."""
    weight = np.array([bin(k).count("1") for k in range(2 ** n)])
    charge = np.subtract.outer(weight, weight).ravel()
    charge.setflags(write=False)
    return charge


@lru_cache(maxsize=None)
def _sector(n: int, held: tuple[int, ...]) -> np.ndarray:
    """Row-major indices a * 2^n + b of the units |a><b| of the held charges."""
    sector = np.flatnonzero(np.isin(_charges(n), held))
    sector.setflags(write=False)
    return sector


@lru_cache(maxsize=None)
def _exchange_pieces(n: int, i: int, j: int, held: tuple[int, ...]) -> np.ndarray:
    """X -> X, P X P, P X - X P and Tr_ij(X) (x) I/4 for P = P_ij on the held
    charges' sector: a read-only (4, m * m) stack of maps on row-major vec(X)."""
    d = 2 ** n
    sector = _sector(n, held)
    p, eye = exchange_operator(n, i, j), np.eye(d)
    # Tr_ij(X) (x) I/4 keeps |a><b| where a and b agree on the pair and
    # spreads it over the four pair states alike.
    pair = (1 << (n - i)) | (1 << (n - j))
    a, b = np.divmod(sector, d)
    diagonal = (a & pair) == (b & pair)
    rest = (a & ~pair) * d + (b & ~pair)
    trace = 0.25 * (diagonal[:, None] & diagonal & (rest[:, None] == rest))
    # vec(A X B) = (A (x) B^T) vec(X) for a row-major vec.
    block = np.ix_(sector, sector)
    pieces = np.stack([np.eye(len(sector)), np.kron(p, p)[block],
                       (np.kron(p, eye) - np.kron(eye, p))[block], trace]).reshape(4, -1)
    pieces.setflags(write=False)
    return pieces


@lru_cache(maxsize=1024)
def _noisy_block(n: int, rotations: tuple[tuple[int, int, float], ...], n_steps: int,
                 p_depol: float, held: tuple[int, ...]) -> np.ndarray:
    """Read-only n_steps power of the step's noisy transfer matrix on the
    held charges' sector; the cache hands every caller the same array."""
    m = len(_sector(n, held))
    q = 16.0 * p_depol / 15.0
    keep = 1.0 - q
    step = np.eye(m)
    for i, j, angle in rotations:
        c, s = math.cos(angle), math.sin(angle)
        weights = np.array([keep * c * c, keep * s * s, 1j * keep * c * s, q])
        step = (weights @ _exchange_pieces(n, i, j, held)).reshape(m, m) @ step
    block = np.linalg.matrix_power(step, n_steps)
    block.setflags(write=False)
    return block


def depolarized_overlap(phi0: np.ndarray, excitation: np.ndarray,
                        rotations: list[tuple[int, int, float]], n_steps: int,
                        p_depol: float) -> complex:
    """Mean branch overlap E[z] of `n_steps` noisy repetitions of a step.

    The step is a list of exchange rotations (i, j, a) in circuit order,
    1-based spins (`evolution.exchange_rotations`), each followed by the
    depolarizing insertion on its pair.  The coherence X = E |phi0><phi0|
    is carried on its charge sector to the end of the evolution by the
    cached transfer block of (n, rotations, n_steps, p_depol, held
    charges), where E[z] = tr(E^dag X).  With p_depol = 0 this is the
    clean overlap.
    """
    n = phi0.size.bit_length() - 1
    coherence = np.outer(excitation @ phi0, phi0.conj()).ravel()
    held = tuple(np.unique(_charges(n)[coherence != 0]).tolist())
    sector = _sector(n, held)
    block = _noisy_block(n, tuple(rotations), n_steps, p_depol, held)
    return complex(np.vdot(excitation.ravel()[sector], block @ coherence[sector]))
