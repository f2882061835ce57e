"""Shot statistics, the exact depolarizing channel, and its references.

The density-matrix depolarizing channels coded here, one over the whole
interferometer and one on the register alone, are the independent
oracles for `depolarized_overlap`; the Pauli-transfer form of the channel
(`oracles.pauli_transfer_overlap`) must agree with it too, and the
literal trajectory average `oracles.noisy_trajectory_p0` must reproduce
it within Monte Carlo error.
"""
import numpy as np
import pytest

import qpde.engine as engine
from oracles import (TWO_QUBIT_PAULIS, Circuit, Gate, TrotterPlan, apply_matrix,
                     basis_state, circuit_p0, circuit_unitary, from_amplitudes,
                     gaussian_model, noisy_trajectory_p0, pauli_transfer_overlap,
                     qpde_circuit, tensor, trotter_circuit)
from qpde import sampling
from qpde.engine import (EstimatorConfig, PriorSpec, _branch_overlap,
                         build_excitation_unitary, run_estimation, sweep)
from qpde.evolution import exchange_rotations
from qpde.sampling import (SamplerSpec, depolarized_overlap, derived_rng, fringe_p0,
                           sample_p0)
from qpde.spin import SpinSystem, linear_chain, named_state, triangle, two_spin_system


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(mode="bogus")
    with pytest.raises(ValueError):
        SamplerSpec(shots=0)
    with pytest.raises(ValueError):
        SamplerSpec(p_depol=1.5)
    with pytest.raises(ValueError, match="seed"):
        SamplerSpec(seed=-1)


@pytest.mark.parametrize("bad", [50.5, 50.0, True, np.float64(50.0), "50", None],
                         ids=["50.5", "50.0", "True", "float64", "str", "None"])
def test_sampler_spec_rejects_non_integer_shots(bad):
    # 50.5 shots would draw binomial(50, p) / 50.5, and True one-shot sweeps.
    with pytest.raises(ValueError, match="shots"):
        SamplerSpec("shots", shots=bad)


@pytest.mark.parametrize("bad", [1.5, 1.0, False, np.bool_(True), "1"],
                         ids=["1.5", "1.0", "False", "bool_", "str"])
def test_sampler_spec_rejects_non_integer_seed(bad):
    with pytest.raises(ValueError, match="seed"):
        SamplerSpec(seed=bad)


def test_sampler_spec_takes_numpy_integers_as_ints():
    spec = SamplerSpec("noisy", shots=np.int64(500), seed=np.int64(7))
    assert spec == SamplerSpec("noisy", shots=500, seed=7)
    assert type(spec.shots) is int and type(spec.seed) is int


def test_sample_p0_extremes_and_determinism():
    rng = derived_rng(0, 1)
    assert sample_p0(1.0, 500, rng) == 1.0
    assert sample_p0(0.0, 500, rng) == 0.0
    a = sample_p0(0.37, 5000, derived_rng(42, 7))
    b = sample_p0(0.37, 5000, derived_rng(42, 7))
    assert a == b
    with pytest.raises(ValueError):
        sample_p0(1.2, 10, rng)


def test_sample_p0_concentrates():
    draws = [sample_p0(0.5, 4000, derived_rng(9, k)) for k in range(100)]
    assert abs(np.mean(draws) - 0.5) <= 3 * 0.5 / np.sqrt(4000)


def test_derived_streams_are_order_independent():
    values_forward = [derived_rng(5, 0, k).random() for k in range(8)]
    values_backward = [derived_rng(5, 0, k).random() for k in reversed(range(8))]
    assert values_forward == list(reversed(values_backward))


def _qpde_setup(system, ground, excited):
    phi0 = named_state(ground, system.n_spins).coefficients.astype(complex)
    phi1 = named_state(excited, system.n_spins).coefficients.astype(complex)
    return phi0, phi1, build_excitation_unitary(phi0, phi1)


def test_noiseless_trajectory_reduces_to_exact_probability():
    system = two_spin_system(1.0)
    phi0, phi1, excitation = _qpde_setup(system, "T", "S")
    circuit = qpde_circuit(system, excitation, 0.2, 1.1,
                           evolution="trotter", n_steps=1)
    init = tensor(from_amplitudes(phi0), basis_state(1, 0))
    value = noisy_trajectory_p0(circuit, 0.0, derived_rng(0), shots=17,
                                ancilla_index=2, initial_state=init)
    expected = circuit_p0(phi0, excitation, system, 0.2, 1.1, evolution="trotter",
                          n_steps=1)
    assert value == pytest.approx(expected, abs=1e-12)


def _channel_z(system, phi0, excitation, t, n_steps, p_depol):
    return depolarized_overlap(phi0, excitation,
                               exchange_rotations(system, t / n_steps), n_steps, p_depol)


def test_full_depolarizing_drives_toward_half():
    # A deep two-qubit circuit with certain insertion scrambles the ancilla
    # branch overlap, pulling p0 toward 1/2.
    system = two_spin_system(1.0)
    phi0, phi1, excitation = _qpde_setup(system, "T", "S")
    z = _channel_z(system, phi0, excitation, 2.0, 40, p_depol=1.0)
    assert abs(z) < 1e-6
    values = [sample_p0(fringe_p0(z, 2.0 * 2.0), 2000, derived_rng(3, k))
              for k in range(3)]
    assert all(abs(v - 0.5) < 0.05 for v in values)


def _dm_channel_p0(system, phi0, excitation, t, n_steps, delta, p_depol):
    """Exact depolarizing-channel expectation (independent oracle)."""
    evo_gates = trotter_circuit(system, TrotterPlan(t, n_steps)).gates
    full = qpde_circuit(system, excitation, t, delta, evolution="trotter",
                        n_steps=n_steps)
    n = system.n_spins + 1
    literal = Circuit(n, [full.gates[0], full.gates[1]]
                      + [Gate.two(*g.targets, g.matrix) for g in evo_gates]
                      + list(full.gates[3:]))
    state = tensor(from_amplitudes(phi0), basis_state(1, 0)).amplitudes
    rho = np.outer(state, state.conj())
    for gate in literal.gates:
        u = circuit_unitary(Circuit(n, [gate]))
        rho = u @ rho @ u.conj().T
        if len(gate.targets) == 2:
            paulis = [circuit_unitary(Circuit(n, [Gate.two(*gate.targets, p)]))
                      for p in TWO_QUBIT_PAULIS]
            mixed = sum(p @ rho @ p.conj().T for p in paulis) / 15
            rho = (1 - p_depol) * rho + p_depol * mixed
    return float(np.real(sum(rho[i, i] for i in range(2 ** n) if i % 2 == 0)))


def test_fast_sampler_matches_density_matrix_channel():
    t, n_steps, delta = 0.6, 25, 1.3
    for system, ground, excited in ((two_spin_system(1.0), "T", "S"),
                                    (linear_chain(1.0, 1.0), "Q", "D2"),
                                    (triangle(1.0, 1.0, 2.0), "Q", "D2")):
        phi0, phi1, excitation = _qpde_setup(system, ground, excited)
        for p_depol in (0.0, 0.02, 1.0):
            expected = _dm_channel_p0(system, phi0, excitation, t, n_steps, delta,
                                      p_depol)
            z = _channel_z(system, phi0, excitation, t, n_steps, p_depol)
            assert fringe_p0(z, delta * t) == pytest.approx(expected, abs=1e-12)


def _embedded(n, targets, matrix):
    return apply_matrix(np.eye(2 ** n, dtype=complex), matrix, targets, n)


def _dm_channel_z(system, phi0, excitation, t, n_steps, p_depol):
    """E[z] from the register-only depolarizing channel (independent oracle):
    X = E |phi0><phi0| goes through rho -> U rho U^dag for each gate of the
    Trotter circuit, then (1 - p) rho + p / 15 sum P rho P on its pair."""
    n = system.n_spins
    gates = [(_embedded(n, gate.targets, gate.matrix),
              np.array([_embedded(n, gate.targets, pauli) for pauli in TWO_QUBIT_PAULIS]))
             for gate in trotter_circuit(system, TrotterPlan(t / n_steps, 1)).gates]
    rho = np.outer(excitation @ phi0, phi0.conj())
    for _ in range(n_steps):
        for u, paulis in gates:
            rho = u @ rho @ u.conj().T
            rho = (1 - p_depol) * rho + p_depol / 15 * (paulis @ rho @ paulis).sum(axis=0)
    return complex(np.trace(excitation.conj().T @ rho))


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


_J = np.random.default_rng(13).normal(size=5)
_RANDOM_TRIANGLE = SpinSystem(3, ((1, 2, _J[0]), (1, 3, -abs(_J[1])), (2, 3, _J[2])))


def _channel_case(name):
    """(system, phi0 amplitudes, excitation) of a named oracle case."""
    if name == "random-state":
        # A random state and swap: X spans every charge, so the channel
        # runs on the whole operator space.
        rng = np.random.default_rng(5)
        phi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        return _RANDOM_TRIANGLE, phi0 / np.linalg.norm(phi0), _random_unitary(8, rng)
    system, ground, excited = {
        "two-spin": (SpinSystem(2, ((1, 2, -abs(_J[3])),)), "T", "S"),
        "chain-with-zero": (SpinSystem(3, ((1, 2, _J[4]), (2, 3, 0.0))), "Q", "D2"),
        "triangle": (_RANDOM_TRIANGLE, "Q", "D1"),
    }[name]
    phi0, phi1, excitation = _qpde_setup(system, ground, excited)
    return system, phi0, excitation


@pytest.mark.parametrize("p_depol", [0.0, 0.002, 0.02, 1.0])
@pytest.mark.parametrize("n_steps", [1, 7, 600])
@pytest.mark.parametrize("name", ["two-spin", "chain-with-zero", "triangle", "random-state"])
def test_channel_matches_register_density_matrix(name, n_steps, p_depol):
    system, phi0, excitation = _channel_case(name)
    t = 1.7
    z = depolarized_overlap(phi0, excitation, exchange_rotations(system, t / n_steps),
                            n_steps, p_depol)
    assert abs(z - _dm_channel_z(system, phi0, excitation, t, n_steps, p_depol)) <= 1e-12


def test_charge_sector_sizes():
    # Quartet -> doublet coherences hold charge 1, triplet -> singlet charge 0.
    assert len(sampling._sector(3, (1,))) == 15
    assert len(sampling._sector(2, (0,))) == 6
    assert len(sampling._sector(3, tuple(range(-3, 4)))) == 64


def test_channel_matches_pauli_transfer_form():
    rng = np.random.default_rng(2026)
    for k in range(24):
        couplings = [(1, 2), (2, 3), (1, 3)][:1 + k % 3]
        strengths = rng.normal(size=3) * (rng.random(3) > 0.15)
        system = SpinSystem(3 if k % 3 else 2,
                            tuple((i, j, s) for (i, j), s in zip(couplings, strengths)))
        ground, excited = ("T", "S") if k % 3 == 0 else ("Q", ("D1", "D2")[k % 2])
        phi0, _, excitation = _qpde_setup(system, ground, excited)
        t, n_steps = rng.uniform(0.1, 8.0), int(rng.integers(1, 1301))
        p_depol = (0.0, 0.002, 0.02, 1.0)[k % 4]
        step = trotter_circuit(system, TrotterPlan(t / n_steps, 1))
        expected = pauli_transfer_overlap(phi0, excitation, step, n_steps, p_depol)
        z = _channel_z(system, phi0, excitation, t, n_steps, p_depol)
        assert abs(z - expected) <= 1e-12, (system, t, n_steps, p_depol)


def _noisy_run(excited, seed):
    """A triangle(1, 1, 2) Q -> excited run in noisy mode at 500 shots and
    p_depol 0.01, and its distinct (t, n_steps) keys."""
    result = run_estimation(triangle(1.0, 1.0, 2.0), "Q", excited,
                            PriorSpec("gaussian", 0.0, 10.0),
                            sampler=SamplerSpec("noisy", 500, 0.01, seed))
    return result, {(row.t, row.n_steps) for row in result.trace}


def test_noisy_runs_build_each_sector_block_once():
    # The channel's transfer block is keyed on the step's rotations, the
    # step count, p_depol and the held charges, not on the run or the
    # preparation: retries, restarts, later runs and the other doublet of
    # the same system reuse it.
    blocks = sampling._noisy_block
    blocks.cache_clear()
    first, first_keys = _noisy_run("D2", 0)
    sweeps = sum(row.fit_attempts for row in first.trace)
    assert any(row.restarted for row in first.trace)
    assert sweeps > len(first.trace) > len(first_keys)
    assert blocks.cache_info().misses == len(first_keys)
    assert blocks.cache_info().hits == sweeps - len(first_keys)

    _, second_keys = _noisy_run("D2", 5)
    assert first_keys & second_keys
    assert blocks.cache_info().misses == len(first_keys | second_keys)

    before = blocks.cache_info().misses
    _, d1_keys = _noisy_run("D1", 0)
    assert d1_keys & (first_keys | second_keys)
    assert blocks.cache_info().misses == before + len(d1_keys - first_keys - second_keys)


def test_noiseless_channel_is_the_clean_overlap():
    system = triangle(0.7805, 1.2124, 0.7805)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    z = _channel_z(system, phi0, excitation, 8.0, 1200, p_depol=0.0)
    clean = _branch_overlap(phi0, excitation, system, 8.0, "trotter", 1200)
    assert abs(z - clean) < 1e-11


def test_fast_sampler_matches_literal_trajectories():
    system = linear_chain(1.0, 1.0)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    t, n_steps, delta, p_depol = 0.6, 25, 1.3, 0.02
    evo_gates = trotter_circuit(system, TrotterPlan(t, n_steps)).gates
    full = qpde_circuit(system, excitation, t, delta, evolution="trotter",
                        n_steps=n_steps)
    literal = Circuit(4, [full.gates[0], full.gates[1]]
                      + [Gate.two(*g.targets, g.matrix) for g in evo_gates]
                      + list(full.gates[3:]))
    init = tensor(from_amplitudes(phi0), basis_state(1, 0))
    literal_mean = noisy_trajectory_p0(literal, p_depol, derived_rng(21), shots=4000,
                                       ancilla_index=3, initial_state=init)
    z = _channel_z(system, phi0, excitation, t, n_steps, p_depol)
    # The literal mean is a Monte Carlo estimate with a standard error of
    # about 0.004 here (per-trajectory p0 spread 0.25 over 4000 shots).
    assert abs(float(fringe_p0(z, delta * t)) - literal_mean) <= 0.02


def test_sampled_measurement_is_seed_deterministic():
    # A noisy sweep is one binomial draw per point from the depolarized
    # fringe, the whole grid taken in one call from the sweep's
    # (seed, iteration, attempt) stream.
    system = linear_chain(1.0, 1.0)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    t, n_steps = 0.4, 20
    sampler = SamplerSpec(mode="noisy", shots=5000, p_depol=0.01, seed=33)
    prior = PriorSpec("gaussian", 1.0, 1.5)
    config = EstimatorConfig()
    points = sweep(phi0, phi1, system, t, prior, config, sampler, n_steps=n_steps)
    again = sweep(phi0, phi1, system, t, prior, config, sampler, n_steps=n_steps)
    assert points == again
    z = _channel_z(system, phi0, excitation, t, n_steps, sampler.p_depol)
    p = fringe_p0(z, np.array([point.delta_eps for point in points]) * t)
    expected = derived_rng(sampler.seed, 0, 0).binomial(sampler.shots, p) / sampler.shots
    assert [point.p0 for point in points] == expected.tolist()


def test_sweep_builds_one_stream(monkeypatch):
    calls = []

    def counted(*coordinates):
        calls.append(coordinates)
        return derived_rng(*coordinates)

    monkeypatch.setattr(engine, "derived_rng", counted)
    system = two_spin_system(1.0)
    phi0, phi1, _ = _qpde_setup(system, "T", "S")
    sweep(phi0, phi1, system, 0.4, PriorSpec("gaussian", 2.0, 1.0), EstimatorConfig(),
          SamplerSpec("shots", 1000, seed=8), iteration=3)
    assert calls == [(8, 3, 0)]


def test_sweep_draws_do_not_depend_on_earlier_sweeps():
    system = linear_chain(1.0, 1.0)
    phi0, _, excitation = _qpde_setup(system, "Q", "D2")
    grid = np.linspace(0.0, 2.0, 21)
    sampler = SamplerSpec("noisy", 5000, 0.002, seed=5)

    def values(iteration, attempt):
        return engine._sweep_values(phi0, excitation, system, 0.4, 60, grid, "trotter",
                                    sampler, iteration, attempt)[0]

    fresh = values(2, 1)
    for iteration, attempt in ((0, 0), (1, 0), (2, 0), (3, 1)):
        values(iteration, attempt)
    assert np.array_equal(values(2, 1), fresh)
    noisy = fringe_p0(_channel_z(system, phi0, excitation, 0.4, 60, 0.002), grid * 0.4)
    expected = derived_rng(5, 2, 1).binomial(5000, noisy) / 5000
    assert fresh.tolist() == expected.tolist()


def test_sample_p0_checks_every_entry_of_an_array():
    rng = derived_rng(0, 2)
    for bad in (np.nan, 1.2):
        with pytest.raises(ValueError, match="outside"):
            sample_p0(np.array([0.1, bad, 0.5]), 100, rng)
    with pytest.raises(ValueError, match="outside"):
        sample_p0(np.nan, 100, rng)
    p = np.array([0.0, 0.37, 1.0])
    draws = sample_p0(p, 5000, derived_rng(42, 7))
    assert draws.shape == (3,) and draws[0] == 0.0 and draws[2] == 1.0
    scalar = sample_p0(0.37, 5000, derived_rng(42, 7))
    assert scalar == derived_rng(42, 7).binomial(5000, 0.37) / 5000
    assert scalar == sample_p0(np.array([0.37]), 5000, derived_rng(42, 7))[0]


def _fitted_sweep(system, phi0, phi1, excitation, t, n_steps, p_depol, seed,
                  center, halfwidth, shots=4000):
    from qpde.fitting import fit_gaussian
    z = _channel_z(system, phi0, excitation, t, n_steps, p_depol)
    grid = np.linspace(center - halfwidth, center + halfwidth, 21)
    values = [sample_p0(fringe_p0(z, delta * t), shots, derived_rng(seed, k))
              for k, delta in enumerate(grid)]
    return fit_gaussian(grid, np.array(values))


def _fitted_swing(fit, center, halfwidth):
    # The rise of the fitted curve across the window.  On a nearly flat
    # fringe the amplitude alone can sit at its cap, traded against a
    # sigma several windows wide and a lower offset.
    grid = np.linspace(center - halfwidth, center + halfwidth, 21)
    return np.ptp(gaussian_model(grid, fit.offset, fit.amplitude, fit.mu, fit.sigma))


def test_contrast_loss_is_monotone_in_noise_strength():
    system = linear_chain(1.0, 1.0)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    weaker, stronger = [], []
    for seed in range(10):
        weak = _fitted_sweep(system, phi0, phi1, excitation, t=1.0, n_steps=150,
                             p_depol=0.0005, seed=seed, center=1.0, halfwidth=1.5)
        strong = _fitted_sweep(system, phi0, phi1, excitation, t=1.0, n_steps=150,
                               p_depol=0.01, seed=1000 + seed, center=1.0,
                               halfwidth=1.5)
        weaker.append(_fitted_swing(weak, center=1.0, halfwidth=1.5))
        stronger.append(_fitted_swing(strong, center=1.0, halfwidth=1.5))
    # Statistically: stronger depolarization flattens the fringe.
    drops = sum(s < w for w, s in zip(weaker, stronger))
    assert drops >= 9
    assert np.mean(stronger) < np.mean(weaker)


def test_noise_does_not_bias_the_peak_location():
    system = linear_chain(1.0, 1.0)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    noiseless = _fitted_sweep(system, phi0, phi1, excitation, t=1.0, n_steps=150,
                              p_depol=0.0, seed=0, center=1.0, halfwidth=1.5,
                              shots=200000)
    mus = []
    for seed in range(50):
        fit = _fitted_sweep(system, phi0, phi1, excitation, t=1.0, n_steps=150,
                            p_depol=0.004, seed=seed, center=1.0, halfwidth=1.5)
        mus.append(fit.mu)
    grid_cell = 2 * 1.5 / 20
    assert abs(np.mean(mus) - noiseless.mu) <= 2 * grid_cell


def test_channel_coherence_decays_with_depth():
    # Each step adds insertions, so the mean branch coherence |E[z]| falls
    # as the evolution deepens, below its clean value.
    system = linear_chain(1.0, 1.0)
    phi0, phi1, excitation = _qpde_setup(system, "Q", "D2")
    coherences = []
    for t, n_steps in ((0.2, 30), (1.0, 150), (4.2, 620)):
        z = _channel_z(system, phi0, excitation, t, n_steps, p_depol=0.002)
        clean = _channel_z(system, phi0, excitation, t, n_steps, p_depol=0.0)
        assert abs(z) < abs(clean)
        coherences.append(abs(z))
    assert coherences[0] > coherences[1] > coherences[2]
