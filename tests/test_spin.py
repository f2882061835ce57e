"""Hamiltonian construction, spin eigenfunctions, and the exact-gap oracle.

The closed-form entry formulas used as oracles here are written out
independently of the exchange-permutation builder they check, and so is
the test-local Kronecker product of spin matrices.
"""
import numpy as np
import pytest

from oracles import (build_hamiltonian, random_system, spin_squared, spin_z,
                     to_spin_eigenbasis)
from qpde.spin import (SpinEigenfunction, SpinSystem, assignment, degeneracy, exact_gap,
                       exchange_operator, exchange_sectors, linear_chain, named_state,
                       sector_hamiltonian, spin_eigenbasis, spin_eigenfunction,
                       system_eigensystem, triangle, two_spin_system)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)


def two_spin_matrix(j12):
    """Independent closed form in the basis (|00>, |01>, |10>, |11>)."""
    return np.array([
        [-j12 / 2, 0, 0, 0],
        [0, j12 / 2, -j12, 0],
        [0, -j12, j12 / 2, 0],
        [0, 0, 0, -j12 / 2],
    ])


def three_spin_matrix(j12, j23, j13):
    """Independent closed form, written against the single- and double-flip
    structure.  Kets are binary-indexed with spin 1 as the high bit, so
    e.g. the spin-1-flipped ket |100> is index 4."""
    a11 = -(j12 + j23 + j13) / 2
    a22 = (-j12 + j23 + j13) / 2  # spin 3 flipped, |001>
    a33 = (j12 + j23 - j13) / 2   # spin 2 flipped, |010>
    a44 = (j12 - j23 + j13) / 2   # spin 1 flipped, |100>
    h = np.zeros((8, 8))
    h[0, 0] = h[7, 7] = a11
    h[0b001, 0b001] = h[0b110, 0b110] = a22
    h[0b010, 0b010] = h[0b101, 0b101] = a33
    h[0b100, 0b100] = h[0b011, 0b011] = a44
    # Flip-flop terms couple kets that differ by swapping one spin pair.
    h[0b001, 0b010] = h[0b010, 0b001] = h[0b101, 0b110] = h[0b110, 0b101] = -j23
    h[0b001, 0b100] = h[0b100, 0b001] = h[0b011, 0b110] = h[0b110, 0b011] = -j13
    h[0b010, 0b100] = h[0b100, 0b010] = h[0b011, 0b101] = h[0b101, 0b011] = -j12
    return h


def test_two_spin_hamiltonian_explicit():
    h = build_hamiltonian(two_spin_system(1.0))
    assert np.max(np.abs(h - two_spin_matrix(1.0))) <= 1e-15


def test_zero_couplings_give_zero_matrix():
    h = build_hamiltonian(SpinSystem(3, ()))
    assert np.max(np.abs(h)) == 0.0


def test_asymmetric_chain_single_flip_block():
    h = build_hamiltonian(linear_chain(1.0, 1.1))
    block = h[np.ix_([1, 2, 4], [1, 2, 4])]  # (|001>, |010>, |100>)
    expected = np.array([[0.05, -1.1, 0.0],
                         [-1.1, 1.05, -1.0],
                         [0.0, -1.0, -0.05]])
    assert np.max(np.abs(block - expected)) <= 1e-12


def test_hamiltonian_matches_closed_form_for_random_couplings():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        j12, j23, j13 = rng.uniform(-2, 2, size=3)
        h = build_hamiltonian(triangle(j12, j23, j13))
        assert np.max(np.abs(h - three_spin_matrix(j12, j23, j13))) <= 1e-12


def test_spin_system_validation():
    with pytest.raises(ValueError, match="invalid"):
        SpinSystem(2, ((1, 3, 1.0),))
    with pytest.raises(ValueError, match="duplicate"):
        SpinSystem(3, ((1, 2, 1.0), (1, 2, 0.5)))


@pytest.mark.parametrize("strength", [float("nan"), float("inf"), -float("inf")])
def test_spin_system_rejects_non_finite_coupling(strength):
    # A library caller gets the error here, not an eigensolver failure later.
    with pytest.raises(ValueError, match="finite"):
        SpinSystem(2, ((1, 2, strength),))


def test_spin_squared_small_cases():
    assert np.allclose(spin_squared(1), 0.75 * np.eye(2))
    s2 = spin_squared(2)
    t = named_state("T", 2).coefficients
    assert np.allclose(s2 @ t, 2.0 * t, atol=1e-12)
    s2 = spin_squared(3)
    q = named_state("Q", 3).coefficients
    assert np.allclose(s2 @ q, 3.75 * q, atol=1e-12)


SPIN_OPERATORS = (np.array([[0, 0.5], [0.5, 0]], dtype=complex),
                  np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
                  np.array([[0.5, 0], [0, -0.5]], dtype=complex))


def kron_site(op, site, n):
    """Single-site operator at 1-based `site` of n spins (spin 1 is the high bit)."""
    out = np.eye(1)
    for k in range(1, n + 1):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def test_hamiltonian_and_total_spin_match_kron_oracle():
    rng = np.random.default_rng(808)
    for n in range(1, 5):
        total = [sum(kron_site(op, i, n) for i in range(1, n + 1)) for op in SPIN_OPERATORS]
        assert np.max(np.abs(spin_squared(n) - sum(s @ s for s in total))) <= 1e-15
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(25):
            chosen = rng.permutation(len(pairs))[:rng.integers(len(pairs) + 1)]
            # Zero, negative and positive couplings, listed in random order.
            strengths = (rng.choice([0.0, -1.0, 1.0], size=chosen.size)
                         * rng.uniform(0, 2, chosen.size))
            couplings = tuple(pairs[k] + (float(s),) for k, s in zip(chosen, strengths))
            expected = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for i, j, strength in couplings:
                for op in SPIN_OPERATORS:
                    expected -= 2.0 * strength * kron_site(op, i, n) @ kron_site(op, j, n)
            h = build_hamiltonian(SpinSystem(n, couplings))
            assert np.max(np.abs(expected.imag)) == 0.0
            assert np.max(np.abs(h - expected.real)) <= 1e-15


def test_hamiltonian_commutes_with_total_spin():
    rng = np.random.default_rng(55)
    s2 = spin_squared(3)
    for _ in range(1000):
        j12, j23, j13 = rng.uniform(-2, 2, size=3)
        h = build_hamiltonian(triangle(j12, j23, j13))
        assert np.max(np.abs(h @ s2 - s2 @ h)) <= 1e-10
    s2 = spin_squared(2)
    for _ in range(50):
        h = build_hamiltonian(two_spin_system(rng.uniform(-2, 2)))
        assert np.max(np.abs(h @ s2 - s2 @ h)) <= 1e-12


# Every eigenfunction the recurrence must reproduce, coefficient-exact.
# Index order: bit k is spin k+1, up = 0; e.g. |up up down> has index 1.
RECURRENCE_CASES = [
    ((2, 1.0, 1.0, 1), {0b00: 1.0}),
    ((2, 1.0, 0.0, 1), {0b01: 1 / SQRT2, 0b10: 1 / SQRT2}),
    ((2, 1.0, -1.0, 1), {0b11: 1.0}),
    ((2, 0.0, 0.0, 1), {0b01: 1 / SQRT2, 0b10: -1 / SQRT2}),
    ((3, 1.5, 1.5, 1), {0b000: 1.0}),
    ((3, 1.5, 0.5, 1), {0b001: 1 / SQRT3, 0b010: 1 / SQRT3, 0b100: 1 / SQRT3}),
    ((3, 1.5, -0.5, 1), {0b110: 1 / SQRT3, 0b101: 1 / SQRT3, 0b011: 1 / SQRT3}),
    ((3, 1.5, -1.5, 1), {0b111: 1.0}),
    ((3, 0.5, 0.5, 1), {0b001: 2 / SQRT6, 0b010: -1 / SQRT6, 0b100: -1 / SQRT6}),
    ((3, 0.5, -0.5, 1), {0b110: 2 / SQRT6, 0b011: -1 / SQRT6, 0b101: -1 / SQRT6}),
    ((3, 0.5, 0.5, 2), {0b010: 1 / SQRT2, 0b100: -1 / SQRT2}),
    ((3, 0.5, -0.5, 2), {0b011: 1 / SQRT2, 0b101: -1 / SQRT2}),
]


@pytest.mark.parametrize("args, entries", RECURRENCE_CASES)
def test_recurrence_reproduces_catalog(args, entries):
    state = spin_eigenfunction(*args)
    expected = np.zeros(2 ** args[0])
    for index, value in entries.items():
        expected[index] = value
    assert np.max(np.abs(state.coefficients - expected)) <= 1e-12


def test_eigenfunctions_are_simultaneous_eigenvectors():
    for n in (2, 3, 4):
        s2 = spin_squared(n)
        sz = spin_z(n)
        for state in spin_eigenbasis(n):
            vec = state.coefficients
            assert np.max(np.abs(s2 @ vec - state.s * (state.s + 1) * vec)) <= 1e-10
            assert np.max(np.abs(sz @ vec - state.ms * vec)) <= 1e-10


def test_eigenbasis_orthonormal():
    for n in (2, 3, 4):
        basis = np.column_stack([b.coefficients for b in spin_eigenbasis(n)])
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(2 ** n))) <= 1e-12


@pytest.mark.parametrize("n, sizes", [(1, (1, 1)), (2, (1, 1, 1, 1)),
                                      (3, (1, 1, 1, 1, 2, 2)),
                                      (4, (1, 1, 1, 1, 1, 3, 3, 3, 2))])
def test_exchange_sectors_rebuild_every_exchange_operator(n, sizes):
    table = exchange_sectors(n)
    assert table.sizes == sizes
    assert table.units.shape == (sum(m * m for m in sizes), 2 ** n, 2 ** n)
    assert sorted(table.blocks) == [(i, j) for i in range(1, n + 1)
                                    for j in range(i + 1, n + 1)]
    for (i, j), blocks in table.blocks.items():
        assert [len(block) for block in blocks] == list(sizes)
        entries = [entry for block in blocks for row in block for entry in row]
        rebuilt = np.tensordot(entries, table.units, 1)
        assert np.max(np.abs(rebuilt - exchange_operator(n, i, j))) <= 1e-14
        for block in blocks:
            assert np.allclose(block, np.transpose(block), rtol=0, atol=1e-15)
    # The basis columns, sector by sector, are the vectors of the units.
    basis = table.basis
    assert np.max(np.abs(basis.T @ basis - np.eye(2 ** n))) <= 1e-14
    unit, column = 0, 0
    for m in sizes:
        for a in range(m):
            outer = np.outer(basis[:, column + a], basis[:, column + a])
            assert np.array_equal(table.units[unit + a * m + a], outer)
        unit, column = unit + m * m, column + m


def test_exchange_sectors_differ_between_doublet_ms_values():
    # The recurrence flips the ms = -1/2 member of the doublet built from
    # the triplet, so the off-diagonal of P_13 changes sign between the
    # (1/2, 1/2) and (1/2, -1/2) sectors: blocks are per (s, ms).
    up, down = exchange_sectors(3).blocks[1, 3][4:]
    assert up[0][1] == pytest.approx(-down[0][1], abs=1e-15)
    assert abs(up[0][1]) > 0.8


def test_exchange_sectors_are_cached_and_read_only():
    table = exchange_sectors(3)
    assert exchange_sectors(3) is table
    for array in (table.units, table.basis):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    with pytest.raises(TypeError):
        table.blocks[1, 2] = ((1.0,),)
    with pytest.raises(AttributeError):
        table.sizes = ()


def test_invalid_quantum_numbers_rejected():
    with pytest.raises(ValueError):
        spin_eigenfunction(2, 0.5, 0.5)  # wrong parity
    with pytest.raises(ValueError):
        spin_eigenfunction(3, 1.5, 2.5)  # ms > s
    with pytest.raises(ValueError):
        spin_eigenfunction(3, 0.5, 0.5, d=3)  # only two doublet families


@pytest.mark.parametrize("n, s, ms", [(3, 0.7, 0.5), (3, 0.5, 0.3), (3, 0.5, 0.5 + 1e-9),
                                      (2, 1.0, float("nan")), (3, float("inf"), 0.5)])
def test_quantum_numbers_that_are_not_half_integers_are_rejected(n, s, ms):
    # Before, s and ms were rounded to the nearest half-integer: (3, 0.7,
    # 0.5) returned the s = 1/2 doublet and (3, 0.5, 0.3) the ms = 1/2 one.
    with pytest.raises(ValueError, match="half-integer"):
        spin_eigenfunction(n, s, ms)


def test_degeneracy_rejects_a_spin_that_is_not_a_half_integer():
    assert [degeneracy(3, s) for s in (1.5, 0.5)] == [1, 2]
    with pytest.raises(ValueError, match="half-integer"):
        degeneracy(3, 0.7)


def test_named_states_match_definitions():
    q = named_state("Q", 3).coefficients
    assert q[0] == 1.0 and np.sum(np.abs(q)) == 1.0
    d1 = named_state("D1", 3).coefficients
    expected = np.zeros(8)
    expected[0b010] = 2 / SQRT6
    expected[0b100] = -1 / SQRT6
    expected[0b001] = -1 / SQRT6
    assert np.allclose(d1, expected, atol=1e-15)
    d2 = named_state("D2", 3).coefficients
    expected = np.zeros(8)
    expected[0b001] = 1 / SQRT2
    expected[0b100] = -1 / SQRT2
    assert np.allclose(d2, expected, atol=1e-15)


def test_named_state_label_validation():
    with pytest.raises(ValueError, match="unknown state label"):
        named_state("D3", 3)
    with pytest.raises(ValueError, match="requires"):
        named_state("T", 3)


@pytest.mark.parametrize("label, d", [("D1_rec", 1), ("D2_rec", 2)])
def test_recurrence_doublet_labels(label, d):
    state, expected = named_state(label, 3), spin_eigenfunction(3, 0.5, 0.5, d)
    assert (state.n, state.s, state.ms, state.d) == (expected.n, expected.s,
                                                     expected.ms, expected.d)
    assert np.array_equal(state.coefficients, expected.coefficients)
    with pytest.raises(ValueError, match="requires 3 spins"):
        named_state(label, 2)
    gap = exact_gap(triangle(1.0, 1.0, 1.0), "Q", label)
    assert gap == pytest.approx(3.0, abs=1e-12)


def test_symmetric_chain_doublet_energies():
    h = build_hamiltonian(linear_chain(1.0, 1.0))
    d2 = named_state("D2", 3).coefficients
    assert np.max(np.abs(h @ d2)) <= 1e-12  # E = 0
    d1 = named_state("D1", 3).coefficients
    assert np.max(np.abs(h @ d1 - 2.0 * d1)) <= 1e-12  # E = 2


def test_two_spin_eigenbasis_transform():
    h = build_hamiltonian(two_spin_system(1.0))
    b = to_spin_eigenbasis(h, spin_eigenbasis(2))
    assert np.allclose(b, np.diag([-0.5, -0.5, -0.5, 1.5]), atol=1e-12)


def doublet_block_closed_form(j12, j23, j13):
    """Independent closed form of the doublet-sector entries."""
    b_qq = -(j12 + j23 + j13) / 2
    b_d1d1 = (-j12 + 2 * j23 + 2 * j13) / 2
    b_d2d2 = 1.5 * j12
    b_d1d2 = (SQRT3 / 2) * (j13 - j23)
    return b_qq, b_d1d1, b_d2d2, b_d1d2


def expected_eigenbasis_matrix(j12, j23, j13):
    b_qq, b_d1d1, b_d2d2, b_d1d2 = doublet_block_closed_form(j12, j23, j13)
    expected = np.zeros((8, 8))
    expected[:4, :4] = b_qq * np.eye(4)
    expected[4, 4] = expected[5, 5] = b_d1d1
    expected[6, 6] = expected[7, 7] = b_d2d2
    expected[4, 6] = expected[6, 4] = b_d1d2
    # In the eigenfunction sign convention of the catalog (dominant ket
    # positive for both ms members), the lowered-ms doublet coupling
    # carries the opposite sign.
    expected[5, 7] = expected[7, 5] = -b_d1d2
    return expected


def test_three_spin_eigenbasis_closed_forms():
    rng = np.random.default_rng(77)
    basis = spin_eigenbasis(3)
    for _ in range(1000):
        j12, j23, j13 = rng.uniform(-2, 2, size=3)
        b = to_spin_eigenbasis(build_hamiltonian(triangle(j12, j23, j13)), basis)
        assert np.max(np.abs(b - expected_eigenbasis_matrix(j12, j23, j13))) <= 1e-12


def test_equal_outer_couplings_decouple_doublets():
    basis = spin_eigenbasis(3)
    b = to_spin_eigenbasis(build_hamiltonian(triangle(1.3, 0.7, 0.7)), basis)
    assert abs(b[4, 6]) <= 1e-14


def test_supplementary_convention_d2_entry():
    basis = spin_eigenbasis(3)
    b = to_spin_eigenbasis(build_hamiltonian(linear_chain(1.0, 1.0)), basis)
    assert b[6, 6] == pytest.approx(1.5, abs=1e-12)


def test_to_spin_eigenbasis_rejects_bad_basis():
    t = named_state("T", 2)
    with pytest.raises(ValueError):
        to_spin_eigenbasis(build_hamiltonian(two_spin_system(1.0)), [t, t, t, t])


def asymmetric_gap_oracle(j12, j23):
    """Gap via 2x2 diagonalization of the doublet block (independent route)."""
    _, b_d1d1, b_d2d2, b_d1d2 = doublet_block_closed_form(j12, j23, 0.0)
    mean = (b_d1d1 + b_d2d2) / 2
    radius = np.hypot((b_d2d2 - b_d1d1) / 2, b_d1d2)
    e_quartet = -(j12 + j23) / 2
    return (mean + radius) - e_quartet


EXACT_GAP_CASES = [
    (two_spin_system(1.0), "T", "S", 2.0),
    (linear_chain(1.0, 1.0), "Q", "D2", 1.0),
    (triangle(1.0, 1.0, 1.0), "Q", "D2", 3.0),
    (triangle(1.0, 1.0, 2.0), "Q", "D1", 3.0),
    (triangle(1.0, 1.0, 2.0), "Q", "D2", 5.0),
]


@pytest.mark.parametrize("system, ground, excited, expected", EXACT_GAP_CASES)
def test_exact_gaps_analytic_cases(system, ground, excited, expected):
    gap = exact_gap(system, ground, excited)
    assert gap == pytest.approx(expected, abs=1e-9)


def test_exact_gap_asymmetric_chain():
    gap = exact_gap(linear_chain(1.0, 1.1), "Q", "D1")
    assert gap == pytest.approx(asymmetric_gap_oracle(1.0, 1.1), abs=1e-10)
    assert gap == pytest.approx(3.1536, abs=0.005)
    # The preparation state overwhelmingly overlaps the assigned eigenstate.
    assert assignment(linear_chain(1.0, 1.1), "D1")[2] > 0.99


def test_exact_gap_assignment_reported():
    gap = exact_gap(triangle(1.0, 1.0, 1.0), "Q", "D2")
    idx_q, energy_q, overlap_q = assignment(triangle(1.0, 1.0, 1.0), "Q")
    assert energy_q == pytest.approx(-1.5, abs=1e-12)
    assert gap == pytest.approx(3.0, abs=1e-12)
    # D2 is an exact eigenstate of the frustrated triangle, inside a
    # degenerate doublet: its whole weight lies in that eigenspace.
    assert assignment(triangle(1.0, 1.0, 1.0), "D2")[2] == pytest.approx(1.0, abs=1e-12)


def test_exact_gap_invariant_under_spin_relabeling():
    # Mirroring the chain (swap spins 1 and 3) must not change the gap.
    gap_a = exact_gap(linear_chain(1.0, 1.1), "Q", "D1")
    gap_b = exact_gap(linear_chain(1.1, 1.0), "Q", "D1")
    assert gap_a == pytest.approx(gap_b, abs=1e-12)


def test_degenerate_overlap_ties_break_to_lowest_index():
    # With zero couplings the whole spectrum is one eigenspace: |T> goes to
    # its first index with its full weight, whatever basis eigh returns.
    gap = exact_gap(SpinSystem(2, ()), "T", "S")
    assert assignment(SpinSystem(2, ()), "T") == (0, pytest.approx(0.0, abs=1e-15),
                                       pytest.approx(1.0, abs=1e-12))
    assert gap == pytest.approx(0.0, abs=1e-15)
    # |D2> is the (1, 3) singlet times spin 2, with energy 3 j13 / 2, and
    # |D1> then has sum(J) - 3 j13 / 2.  With j12 + j23 = 2 j13 the two are
    # equal, so |D2> splits equally over the doublet eigenspaces at
    # sum(J)/2 -+ sqrt(3)/2; the lower one (first index 4, after the
    # quartet) wins.
    gap = exact_gap(triangle(1.5, 0.5, 1.0), "Q", "D2")
    index, energy, weight = assignment(triangle(1.5, 0.5, 1.0), "D2")
    assert index == 4
    assert energy == pytest.approx(1.5 - SQRT3 / 2, abs=1e-12)
    assert weight == pytest.approx(0.5, abs=1e-12)
    assert gap == pytest.approx(3.0 - SQRT3 / 2, abs=1e-12)


def closed_form_spectrum(n_spins, j12, j23=0.0, j13=0.0):
    """Sorted spectrum from the total-spin sectors: two spins have the
    triplet at -J/2 and the singlet at 3J/2; three spins have the quartet
    at -sum(J)/2 and the two doublets at sum(J)/2 -+ R."""
    if n_spins == 2:
        return np.sort([-j12 / 2] * 3 + [1.5 * j12])
    total = j12 + j23 + j13
    radius = np.sqrt(j12 ** 2 + j23 ** 2 + j13 ** 2 - j12 * j23 - j23 * j13 - j13 * j12)
    return np.sort([-total / 2] * 4 + [total / 2 - radius] * 2 + [total / 2 + radius] * 2)


def test_two_spin_hamiltonian_spectrum():
    values, _ = system_eigensystem(two_spin_system(1.0))
    assert np.allclose(values, [-0.5, -0.5, -0.5, 1.5], atol=1e-12)


def test_frustrated_triangle_spectrum():
    values, _ = system_eigensystem(triangle(1, 1, 1))
    assert np.allclose(values, [-1.5] * 4 + [1.5] * 4, atol=1e-12)


def test_system_eigensystem_matches_closed_form_spectrum():
    rng = np.random.default_rng(11)
    for case in range(300):
        j12, j23, j13 = (float(j) for j in rng.uniform(-2, 2, size=3))
        if case % 3 == 0:
            system, expected = two_spin_system(j12), closed_form_spectrum(2, j12)
        elif case % 3 == 1:
            system, expected = linear_chain(j12, j23), closed_form_spectrum(3, j12, j23)
        else:
            system = triangle(j12, j23, j13)
            expected = closed_form_spectrum(3, j12, j23, j13)
        values, vectors = system_eigensystem(system)
        assert np.max(np.abs(values - expected)) <= 1e-12
        h = build_hamiltonian(system)
        assert np.max(np.abs(h @ vectors - vectors * values)) <= 1e-12
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(values.size))) <= 1e-12


def test_sector_spectrum_matches_dense_eigh_oracle():
    # The sector closed form against numpy's eigh of the dense Hamiltonian,
    # including the degenerate frustrated triangles (R = 0).
    rng = np.random.default_rng(2028)
    systems = [SpinSystem(1, ()), SpinSystem(3, ()), triangle(1.0, 1.0, 1.0),
               triangle(-0.7, -0.7, -0.7), two_spin_system(0.0)]
    systems += [random_system(rng, 1 + k % 3) for k in range(330)]
    for system in systems:
        values, vectors = system_eigensystem(system)
        h = build_hamiltonian(system)
        assert values.dtype == vectors.dtype == np.float64
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(values - np.linalg.eigvalsh(h))) <= 1e-12
        assert np.max(np.abs(h @ vectors - vectors * values)) <= 1e-12
        assert np.max(np.abs(vectors.T @ vectors - np.eye(system.dim))) <= 1e-12


def test_system_eigensystem_is_cached_and_read_only():
    values, vectors = system_eigensystem(linear_chain(1.0, 1.1))
    assert system_eigensystem(linear_chain(1.0, 1.1))[1] is vectors
    for array in (values, vectors):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_sector_hamiltonian_rebuilds_the_dense_hamiltonian():
    rng = np.random.default_rng(31)
    for k in range(60):
        system = random_system(rng, 1 + k % 3)
        sectors, blocks = sector_hamiltonian(system)
        assert len(blocks) == len(sectors.sizes)
        entries = []
        for size, block in zip(sectors.sizes, blocks):
            if size == 1:
                assert isinstance(block, float)
                entries.append(block)
            else:
                assert block[0][1] == block[1][0]
                entries += [entry for row in block for entry in row]
        rebuilt = np.tensordot(entries, sectors.units, 1)
        assert np.max(np.abs(rebuilt - build_hamiltonian(system))) <= 1e-14


def test_exchange_blocks_on_doublet_planes_are_traceless():
    # The closed-form Trotter power treats each doublet-plane step as
    # SU(2) times a global phase, which needs every P_ij block traceless.
    for n in (2, 3):
        for blocks in exchange_sectors(n).blocks.values():
            for block in blocks:
                if len(block) == 2:
                    assert abs(block[0][0] + block[1][1]) <= 1e-15


def test_sector_frame_rejects_more_than_three_spins():
    system = SpinSystem(4, ((1, 2, 1.0), (3, 4, 0.5)))
    with pytest.raises(ValueError, match="at most 3 spins"):
        system_eigensystem(system)
    with pytest.raises(ValueError, match="at most 3 spins"):
        sector_hamiltonian(system)


def test_eigenfunction_normalization_validated():
    with pytest.raises(ValueError, match="normalized"):
        SpinEigenfunction(2, 1.0, 0.0, 1, np.array([1.0, 1.0, 0.0, 0.0]))
